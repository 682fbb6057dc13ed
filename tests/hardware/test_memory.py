"""Tests for byte-granular memory pools."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.hardware.memory import MemoryPool, OutOfMemoryError


class TestMemoryPool:
    def test_initial_state(self):
        pool = MemoryPool(100)
        assert pool.capacity == 100
        assert pool.used == 0
        assert pool.free == 100

    def test_reserve_and_release(self):
        pool = MemoryPool(100)
        pool.reserve(60)
        assert pool.used == 60 and pool.free == 40
        pool.release(20)
        assert pool.used == 40

    def test_reserve_beyond_capacity_raises(self):
        pool = MemoryPool(100)
        with pytest.raises(OutOfMemoryError):
            pool.reserve(101)

    def test_reserve_exact_capacity_ok(self):
        pool = MemoryPool(100)
        pool.reserve(100)
        assert pool.free == 0

    def test_release_more_than_used_raises(self):
        pool = MemoryPool(100)
        pool.reserve(10)
        with pytest.raises(ValueError):
            pool.release(11)

    def test_negative_amounts_rejected(self):
        pool = MemoryPool(100)
        with pytest.raises(ValueError):
            pool.reserve(-1)
        with pytest.raises(ValueError):
            pool.release(-1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryPool(-1)

    def test_utilization(self):
        pool = MemoryPool(200)
        pool.reserve(50)
        assert pool.utilization == 0.25

    def test_zero_capacity_utilization_is_zero(self):
        assert MemoryPool(0).utilization == 0.0

    def test_peak_tracking(self):
        pool = MemoryPool(100)
        pool.reserve(80)
        pool.release(70)
        pool.reserve(20)
        assert pool.peak_used == 80


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["reserve", "release"]), st.integers(0, 50)),
        max_size=100,
    )
)
def test_property_pool_never_exceeds_capacity_or_goes_negative(ops):
    pool = MemoryPool(100)
    for op, amount in ops:
        try:
            if op == "reserve":
                pool.reserve(amount)
            else:
                pool.release(amount)
        except (OutOfMemoryError, ValueError):
            pass
        assert 0 <= pool.used <= pool.capacity
        assert pool.free == pool.capacity - pool.used
