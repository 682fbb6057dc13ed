"""Property-based tests for the prefix-cache reuse index.

Hypothesis drives arbitrary acquire/release/insert/evict/drain sequences
against a :class:`PrefixCacheIndex` over a real :class:`KVBlockManager`;
the index must never free blocks that a holder still references, never
exceed its token budget, keep every refcount balanced, and leave the pool
with every allocation freed exactly once.  A chaos run with the cache on
pins the crash-mid-prefill path: a member crash retires the pool while
requests hold cache references, and the freed-exactly-once audit must
still come out clean.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvcache.blocks import BlockLocation, KVBlockManager
from repro.kvcache.prefix import PrefixCacheIndex

GPU_TOKENS = 4096
CAPACITY = 2048
BLOCK = 16

# One operation against the index.  Request ids and prefix hashes are drawn
# from tiny pools so sequences actually collide (same holder re-acquiring,
# same prefix re-published, contended eviction).
OPS = st.lists(
    st.tuples(
        st.sampled_from(["acquire", "release", "insert", "evict", "drain"]),
        st.integers(0, 5),  # request id
        st.integers(1, 4),  # prefix hash
        st.integers(1, 900),  # token count
    ),
    max_size=80,
)


def _index() -> PrefixCacheIndex:
    kv = KVBlockManager(
        gpu_capacity_tokens=GPU_TOKENS,
        cpu_capacity_tokens=0,
        block_size=BLOCK,
        bytes_per_token=8.0,
    )
    return PrefixCacheIndex(kv=kv, capacity_tokens=CAPACITY)


def _check_invariants(index: PrefixCacheIndex) -> None:
    kv = index.kv
    # Freed exactly once, never twice — a double free would count here.
    assert kv.redundant_frees == 0
    # The cache never exceeds its token budget.
    assert index.resident_tokens <= index.capacity_tokens
    # Every entry's blocks are still resident in the pool (never freed
    # while the entry exists), and every held prefix still has its entry.
    resident_ids = {alloc.request_id for alloc in kv.residents()}
    for entry in index._entries.values():
        assert entry.alloc_id in resident_ids
        assert entry.refcount >= 0
    for rid, prefix_hash in index._holders.items():
        if prefix_hash in index._entries:
            assert index._entries[prefix_hash].refcount > 0
    # Refcounts are exactly the holder census.
    holds_per_prefix: dict[int, int] = {}
    for prefix_hash in index._holders.values():
        holds_per_prefix[prefix_hash] = holds_per_prefix.get(prefix_hash, 0) + 1
    for prefix_hash, entry in index._entries.items():
        assert entry.refcount == holds_per_prefix.get(prefix_hash, 0)


@settings(max_examples=200, deadline=None)
@given(OPS)
def test_prefix_index_properties(ops):
    index = _index()
    for op, rid, prefix_hash, tokens in ops:
        if op == "acquire":
            index.acquire(rid, prefix_hash, tokens)
        elif op == "release":
            index.release(rid)
        elif op == "insert":
            index.insert(prefix_hash, tokens)
        elif op == "evict":
            index.evict_unreferenced(tokens)
        elif op == "drain":
            index.drain()
        _check_invariants(index)
    # Full teardown: drop every hold, drain, and the ledger must balance.
    for rid in range(6):
        index.release(rid)
    for entry in index._entries.values():
        assert entry.refcount == 0
    index.drain()
    kv = index.kv
    assert kv.used_gpu_blocks == 0
    assert not kv.residents(BlockLocation.GPU) and not kv.residents(BlockLocation.CPU)
    assert kv.redundant_frees == 0


@settings(max_examples=100, deadline=None)
@given(OPS)
def test_referenced_entries_survive_eviction_pressure(ops):
    """An entry with live holders is never evicted, no matter the pressure."""
    index = _index()
    assert index.insert(prefix_hash=99, tokens=512)
    assert index.acquire(1000, 99, 512) == 512
    for op, rid, prefix_hash, tokens in ops:
        if op == "acquire":
            index.acquire(rid, prefix_hash, tokens)
        elif op == "release":
            index.release(rid)
        elif op == "insert":
            index.insert(prefix_hash, tokens)
        elif op == "evict":
            index.evict_unreferenced(tokens)
        elif op == "drain":
            continue  # drain drops holds by contract; excluded here
        assert index._entries[99].tokens == 512, "held entry was evicted"
    index.release(1000)


def test_acquire_is_idempotent_per_holder():
    index = _index()
    index.insert(7, 256)
    first = index.acquire(1, 7, 256)
    again = index.acquire(1, 7, 256)
    assert first == again == 256
    assert index.stats.hits == 1  # re-acquire re-reports, not re-counts
    assert index._entries[7].refcount == 1
    index.release(1)
    index.release(1)  # idempotent
    assert index._entries[7].refcount == 0


def test_reset_forgets_without_freeing():
    """After Instance.fail() freed the pool, reset must not free again."""
    index = _index()
    index.insert(7, 256)
    alloc_id = index._entries[7].alloc_id
    index.kv.free(alloc_id)  # what Instance.fail() does to every resident
    index.reset()
    assert not index._entries
    assert index.kv.redundant_frees == 0
    index.drain()  # drain after reset is a no-op, not a double free
    assert index.kv.redundant_frees == 0


def test_insert_rejects_oversized_and_counts_skips():
    index = _index()
    assert not index.insert(1, CAPACITY + 1)
    assert not index.insert(2, 0)
    assert index.stats.insert_skipped == 2


def test_chaos_member_crash_with_cache_frees_kv_exactly_once():
    """Crash mid-prefill with warm cache references: the retired pool and
    the replacement pool must both balance alloc/free exactly."""
    from repro.harness.cell import Cell

    result = Cell(
        rate_per_gpu=2.0,
        fleet_nodes=2,
        fault_plan="member-crash",
        num_requests=48,
        seed=3,
        prefix_mix="none=0.2,p0=0.4:384,p1=0.4:512",
        prefix_cache_tokens=2048,
    ).run()
    assert result.violations == []
    assert len(result.metrics.completed) + len(result.metrics.shed) == len(result.submitted)
