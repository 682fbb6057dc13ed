"""Tests for the paged KV block manager."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.hardware.memory import OutOfMemoryError
from repro.kvcache.blocks import BlockLocation, KVBlockManager


def manager(gpu_tokens: int = 1024, cpu_tokens: int = 512, block: int = 16) -> KVBlockManager:
    return KVBlockManager(
        gpu_capacity_tokens=gpu_tokens,
        cpu_capacity_tokens=cpu_tokens,
        block_size=block,
        bytes_per_token=100.0,
    )


class TestAllocation:
    def test_blocks_for_rounds_up(self):
        kv = manager()
        assert kv.blocks_for(1) == 1
        assert kv.blocks_for(16) == 1
        assert kv.blocks_for(17) == 2

    def test_allocate_reserves_blocks(self):
        kv = manager()
        alloc = kv.allocate(1, 33)
        assert alloc.blocks == 3
        assert kv.used_gpu_blocks == 3

    def test_double_allocate_rejected(self):
        kv = manager()
        kv.allocate(1, 10)
        with pytest.raises(ValueError):
            kv.allocate(1, 10)

    def test_allocation_capacity_enforced(self):
        kv = manager(gpu_tokens=64)
        with pytest.raises(OutOfMemoryError):
            kv.allocate(1, 65)

    def test_can_allocate(self):
        kv = manager(gpu_tokens=64)
        assert kv.can_allocate(64)
        assert not kv.can_allocate(65)

    def test_free_returns_blocks(self):
        kv = manager()
        kv.allocate(1, 100)
        kv.free(1)
        assert kv.used_gpu_blocks == 0
        assert not kv.has(1)

    def test_free_unknown_is_noop(self):
        manager().free(42)

    def test_bytes_of(self):
        kv = manager()
        kv.allocate(1, 50)
        assert kv.bytes_of(1) == 5000
        assert kv.bytes_of(99) == 0

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            KVBlockManager(100, 100, 0, 1.0)


class TestExtension:
    def test_extend_within_block_is_free(self):
        kv = manager()
        kv.allocate(1, 10)
        before = kv.used_gpu_blocks
        kv.extend(1, 5)
        assert kv.used_gpu_blocks == before
        assert kv.tokens_of(1) == 15

    def test_extend_across_block_boundary(self):
        kv = manager()
        kv.allocate(1, 16)
        kv.extend(1, 1)
        assert kv.used_gpu_blocks == 2

    def test_extend_unknown_allocates(self):
        kv = manager()
        kv.extend(7, 10)
        assert kv.tokens_of(7) == 10

    def test_can_extend_accounts_for_partial_block(self):
        kv = manager(gpu_tokens=32)
        kv.allocate(1, 30)  # 2 blocks, 2 tokens slack
        assert kv.can_extend(1, 2)
        assert not kv.can_extend(1, 3)

    def test_extend_swapped_request_rejected(self):
        kv = manager()
        kv.allocate(1, 16)
        kv.swap_out(1)
        with pytest.raises(ValueError):
            kv.extend(1, 1)

    def test_can_extend_refuses_swapped_request(self):
        kv = manager()
        kv.allocate(1, 10)
        kv.swap_out(1)
        # The GPU pool is empty, but ``extend`` would refuse a CPU-resident
        # allocation, so ``can_extend`` must not promise it.
        assert kv.free_gpu_blocks == kv.gpu_capacity_blocks
        assert not kv.can_extend(1, 1)
        kv.swap_in(1)
        assert kv.can_extend(1, 1)


class TestSlackAndFill:
    def test_slack_counts_free_slots_of_the_gpu_blocks(self):
        kv = manager()
        kv.allocate(1, 14)
        assert kv.slack(1) == 2
        kv.extend(1, 2)
        assert kv.slack(1) == 0  # the next token starts a block
        kv.swap_out(1)
        assert kv.slack(1) == 0
        assert kv.slack(7) == 0

    def test_fill_writes_tokens_without_reserving(self):
        kv = manager()
        kv.allocate(1, 3)
        free = kv.free_gpu_blocks
        assert kv.append(1, 13)
        assert kv.tokens_of(1) == 16
        assert kv.get(1).blocks == 1
        assert kv.free_gpu_blocks == free

    @pytest.mark.parametrize("rid, tokens", [(1, 3), (2, 0), (7, 0)])
    def test_fill_refuses_what_does_not_fit(self, rid, tokens):
        kv = manager()
        kv.allocate(1, 14)
        kv.allocate(2, 4)
        kv.swap_out(2)
        assert not kv.append(rid, tokens)
        assert kv.tokens_of(1) == 14 and kv.tokens_of(2) == 4

    def test_fill_then_extend_at_the_boundary_matches_extend_by_one(self):
        fast, slow = manager(), manager()
        for kv in (fast, slow):
            kv.allocate(1, 1)
        for _ in range(100):
            if not fast.append(1, 1):
                fast.extend(1, 1)
            slow.extend(1, 1)
            assert fast.get(1) == slow.get(1)
            assert fast.free_gpu_blocks == slow.free_gpu_blocks


class TestChargeAndSettle:
    def test_charged_blocks_move_to_the_allocation_that_crosses_them(self):
        kv = manager()
        kv.allocate(1, 16)
        kv.allocate(2, 10)
        free = kv.free_gpu_blocks
        assert kv.charge(2)
        assert kv.charged == 2 and kv.free_gpu_blocks == free - 2
        kv.settle(1, 17)  # two boundaries: tokens 17 and 33
        assert kv.get(1).blocks == 3 and kv.tokens_of(1) == 33
        assert kv.charged == 0
        kv.settle(2, 6)  # fills its block, crosses nothing
        assert kv.get(2).blocks == 1 and kv.charged == 0
        assert kv.free_gpu_blocks == free - 2

    def test_charge_refuses_more_than_is_free(self):
        kv = KVBlockManager(64, 64, block_size=16, bytes_per_token=1.0)
        kv.allocate(1, 40)
        assert not kv.charge(2)
        assert kv.charged == 0 and kv.free_gpu_blocks == 1
        assert kv.charge(1) and kv.free_gpu_blocks == 0

    def test_settling_an_uncharged_crossing_raises(self):
        kv = manager()
        kv.allocate(1, 16)
        with pytest.raises(ValueError, match="charged"):
            kv.settle(1, 1)
        assert kv.tokens_of(1) == 16 and kv.get(1).blocks == 1

    @pytest.mark.parametrize("rid", [2, 7])
    def test_settle_refuses_an_allocation_off_the_gpu(self, rid):
        kv = manager()
        kv.allocate(2, 4)
        kv.swap_out(2)
        with pytest.raises(ValueError):
            kv.settle(rid, 1)


class TestSwap:
    def test_swap_out_moves_blocks_to_cpu(self):
        kv = manager()
        kv.allocate(1, 64)
        nbytes = kv.swap_out(1)
        assert nbytes == 6400
        assert kv.used_gpu_blocks == 0
        assert kv.get(1).location == BlockLocation.CPU

    def test_swap_out_twice_rejected(self):
        kv = manager()
        kv.allocate(1, 16)
        kv.swap_out(1)
        with pytest.raises(ValueError):
            kv.swap_out(1)

    def test_swap_in_restores(self):
        kv = manager()
        kv.allocate(1, 64)
        kv.swap_out(1)
        nbytes = kv.swap_in(1)
        assert nbytes == 6400
        assert kv.get(1).location == BlockLocation.GPU
        assert kv.used_gpu_blocks == 4

    def test_swap_in_requires_gpu_space(self):
        kv = manager(gpu_tokens=64)
        kv.allocate(1, 64)
        kv.swap_out(1)
        kv.allocate(2, 64)
        assert not kv.can_swap_in(1)

    def test_swap_in_resident_rejected(self):
        kv = manager()
        kv.allocate(1, 16)
        with pytest.raises(ValueError):
            kv.swap_in(1)

    def test_cpu_pool_capacity_enforced(self):
        kv = manager(gpu_tokens=1024, cpu_tokens=32)
        kv.allocate(1, 64)
        with pytest.raises(OutOfMemoryError):
            kv.swap_out(1)

    def test_free_swapped_request_releases_cpu(self):
        kv = manager()
        kv.allocate(1, 64)
        kv.swap_out(1)
        kv.free(1)
        kv.allocate(2, 512)  # CPU pool untouched; GPU fully available
        assert kv.used_gpu_blocks == kv.blocks_for(512)

    def test_residents_filtering(self):
        kv = manager()
        kv.allocate(1, 16)
        kv.allocate(2, 16)
        kv.swap_out(2)
        assert [a.request_id for a in kv.residents(BlockLocation.GPU)] == [1]
        assert [a.request_id for a in kv.residents(BlockLocation.CPU)] == [2]


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["alloc", "extend", "free", "swap_out", "swap_in"]),
            st.integers(0, 5),  # request id
            st.integers(1, 100),  # tokens
        ),
        max_size=80,
    )
)
def test_property_block_accounting_invariants(ops):
    """Total GPU blocks used always equals the sum of GPU-resident
    allocations, and never exceeds capacity."""
    kv = manager(gpu_tokens=640, cpu_tokens=640)
    for op, rid, tokens in ops:
        try:
            if op == "alloc":
                kv.allocate(rid, tokens)
            elif op == "extend":
                kv.extend(rid, tokens)
            elif op == "free":
                kv.free(rid)
            elif op == "swap_out":
                kv.swap_out(rid)
            else:
                kv.swap_in(rid)
        except (ValueError, KeyError, OutOfMemoryError):
            pass
        gpu_blocks = sum(a.blocks for a in kv.residents(BlockLocation.GPU))
        assert kv.used_gpu_blocks == gpu_blocks
        assert kv.used_gpu_blocks <= kv.gpu_capacity_blocks
        for alloc in kv.residents(BlockLocation.GPU) + kv.residents(BlockLocation.CPU):
            assert alloc.blocks == kv.blocks_for(alloc.tokens)
