"""Property-based tests for the KV block manager.

Hypothesis generates arbitrary alloc/extend/free/adopt/swap sequences; the
manager must never double-free, never leak, and never exceed pool capacity,
regardless of the order operations arrive in.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.memory import OutOfMemoryError
from repro.kvcache.blocks import BlockLocation, KVBlockManager

GPU_TOKENS = 4096
CPU_TOKENS = 2048
BLOCK = 16

# One operation: (op-name, request-id, token-count)
OPS = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "extend", "free", "adopt_gpu", "adopt_cpu", "swap_out", "swap_in"]),
        st.integers(0, 7),
        st.integers(1, 700),
    ),
    max_size=60,
)


def _manager() -> KVBlockManager:
    return KVBlockManager(
        gpu_capacity_tokens=GPU_TOKENS,
        cpu_capacity_tokens=CPU_TOKENS,
        block_size=BLOCK,
        bytes_per_token=8.0,
    )


def _apply(kv: KVBlockManager, op: str, rid: int, tokens: int) -> None:
    """Drive one operation, swallowing only *expected* rejections."""
    try:
        if op == "alloc":
            kv.allocate(rid, tokens)
        elif op == "extend":
            kv.extend(rid, tokens)
        elif op == "free":
            kv.free(rid)
        elif op == "adopt_gpu":
            kv.adopt(rid, tokens, BlockLocation.GPU)
        elif op == "adopt_cpu":
            kv.adopt(rid, tokens, BlockLocation.CPU)
        elif op == "swap_out":
            kv.swap_out(rid)
        elif op == "swap_in":
            kv.swap_in(rid)
    except (OutOfMemoryError, ValueError, KeyError):
        pass  # full pool / double-alloc / unknown id are legal rejections


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_pools_never_exceed_capacity(ops):
    kv = _manager()
    for op, rid, tokens in ops:
        _apply(kv, op, rid, tokens)
        assert 0 <= kv.used_gpu_blocks <= kv.gpu_capacity_blocks
        assert 0 <= kv.free_gpu_blocks <= kv.gpu_capacity_blocks
        assert kv.used_gpu_blocks + kv.free_gpu_blocks == kv.gpu_capacity_blocks
        assert 0 <= kv.free_cpu_blocks <= kv.cpu_capacity_blocks


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_freeing_everything_restores_both_pools(ops):
    kv = _manager()
    for op, rid, tokens in ops:
        _apply(kv, op, rid, tokens)
    for rid in range(8):
        kv.free(rid)
    assert kv.used_gpu_blocks == 0
    assert kv.free_gpu_blocks == kv.gpu_capacity_blocks
    assert kv.free_cpu_blocks == kv.cpu_capacity_blocks


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_block_accounting_matches_live_allocations(ops):
    kv = _manager()
    for op, rid, tokens in ops:
        _apply(kv, op, rid, tokens)
        gpu_blocks = sum(
            a.blocks for a in kv.residents(BlockLocation.GPU)
        )
        cpu_blocks = sum(a.blocks for a in kv.residents(BlockLocation.CPU))
        assert gpu_blocks == kv.used_gpu_blocks
        assert cpu_blocks == kv.cpu_capacity_blocks - kv.free_cpu_blocks


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_no_allocation_live_after_full_teardown(ops):
    """Freeing every id leaves no allocation live, in either pool."""
    kv = _manager()
    for op, rid, tokens in ops:
        _apply(kv, op, rid, tokens)
    for rid in range(8):
        kv.free(rid)
    assert not kv.residents(BlockLocation.GPU) and not kv.residents(BlockLocation.CPU)


@settings(max_examples=100, deadline=None)
@given(rid=st.integers(0, 7), tokens=st.integers(1, 500))
def test_double_allocate_rejected_and_harmless(rid, tokens):
    kv = _manager()
    kv.allocate(rid, tokens)
    used = kv.used_gpu_blocks
    try:
        kv.allocate(rid, tokens)
        raise AssertionError("double allocate must raise")
    except ValueError:
        pass
    assert kv.used_gpu_blocks == used
    kv.free(rid)
    assert kv.used_gpu_blocks == 0
    # A second free is redundant, counted, and leaves pools untouched.
    kv.free(rid)
    assert kv.redundant_frees == 1
    assert kv.free_gpu_blocks == kv.gpu_capacity_blocks
