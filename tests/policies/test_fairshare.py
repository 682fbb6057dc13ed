"""Property-based tests for the fair-share discipline.

The WFQ virtual clock must be monotone under any interleaving of pushes
and pops, and long-run service must split by the configured weights.
The token bucket must never exceed its burst and must replay
deterministically.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.fairshare import (
    FairShareConfig,
    FairShareQueue,
    TokenBucket,
)

SIZES = st.floats(min_value=1.0, max_value=4096.0, allow_nan=False, allow_infinity=False)
WEIGHTS = st.floats(min_value=0.1, max_value=16.0, allow_nan=False, allow_infinity=False)

#: Random interleavings: True = push (with a tenant index and size), False = pop.
OPS = st.lists(
    st.tuples(st.booleans(), st.integers(0, 3), SIZES), min_size=1, max_size=120
)


# -- WFQ virtual-time monotonicity ---------------------------------------------


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_virtual_time_monotone_under_any_interleaving(ops):
    queue = FairShareQueue()
    last_v = queue.clock.virtual_time
    for is_push, tenant_idx, size in ops:
        if is_push:
            queue.push(f"t{tenant_idx}", size)
        elif len(queue):
            queue.pop()
        assert queue.clock.virtual_time >= last_v, "virtual clock ran backwards"
        last_v = queue.clock.virtual_time


@settings(max_examples=100, deadline=None)
@given(ops=OPS)
def test_pop_order_replays_deterministically(ops):
    def run():
        queue = FairShareQueue()
        served = []
        for is_push, tenant_idx, size in ops:
            if is_push:
                queue.push(f"t{tenant_idx}", size)
            elif len(queue):
                served.append(queue.pop())
        return served

    assert run() == run()


# -- weighted shares -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(weight=st.floats(min_value=1.0, max_value=8.0))
def test_backlogged_tenants_split_service_by_weight(weight):
    """Two always-backlogged tenants get service proportional to weights.

    Tenant ``b`` has ``weight`` times tenant ``a``'s weight; over a long
    run of unit-size requests its share of pops must converge to
    ``weight / (1 + weight)`` within a small tolerance.
    """
    config = FairShareConfig(weights=(("a", 1.0), ("b", weight)))
    queue = FairShareQueue(config)
    rounds = 400
    for _ in range(8):  # keep both tenants backlogged
        queue.push("a", 100.0)
        queue.push("b", 100.0)
    served = {"a": 0, "b": 0}
    for _ in range(rounds):
        tenant, _ = queue.pop()
        served[tenant] += 1
        queue.push(tenant, 100.0)  # refill: stays backlogged
    share_b = served["b"] / rounds
    expected = weight / (1.0 + weight)
    assert abs(share_b - expected) <= 0.05, (
        f"weight {weight:g}: share {share_b:.3f} vs expected {expected:.3f}"
    )


def test_equal_weights_alternate_service():
    queue = FairShareQueue()
    for _ in range(4):
        queue.push("a", 10.0)
        queue.push("b", 10.0)
    order = [queue.pop()[0] for _ in range(8)]
    assert order == ["a", "b"] * 4


# -- token bucket --------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    rate=st.floats(min_value=0.1, max_value=100.0),
    burst=st.floats(min_value=1.0, max_value=64.0),
    gaps=st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=80),
)
def test_bucket_never_exceeds_burst(rate, burst, gaps):
    bucket = TokenBucket(rate, burst)
    now = 0.0
    for gap in gaps:
        now += gap
        bucket.try_take(now)
        assert bucket.tokens <= burst + 1e-9


@settings(max_examples=100, deadline=None)
@given(
    rate=st.floats(min_value=0.1, max_value=100.0),
    burst=st.floats(min_value=1.0, max_value=64.0),
    gaps=st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=80),
)
def test_bucket_decisions_replay_deterministically(rate, burst, gaps):
    def run():
        bucket = TokenBucket(rate, burst)
        now, decisions = 0.0, []
        for gap in gaps:
            now += gap
            decisions.append(bucket.try_take(now))
        return decisions

    assert run() == run()


def test_bucket_grant_pattern_matches_rate():
    """rate=2/s, burst=4: four grants up front, then one per half second."""
    bucket = TokenBucket(rate=2.0, burst=4.0)
    decisions = [bucket.try_take(0.0) for _ in range(5)]
    assert decisions == [True, True, True, True, False]
    assert bucket.try_take(0.5)  # one token refilled
    assert not bucket.try_take(0.5)


# -- config validation ---------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"weights": (("a", 1.0), ("a", 2.0))},
        {"weights": (("", 1.0),)},
        {"weights": (("a", 0.0),)},
        {"max_inflight": 0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        FairShareConfig(**kwargs)


def test_parse_weights_round_trip():
    config = FairShareConfig(weights=FairShareConfig.parse_weights("heavy=1,light=4"))
    assert config.weight_for("heavy") == 1.0
    assert config.weight_for("light") == 4.0
    assert config.weight_for("unlisted") == 1.0
    assert config.weights_spec() == "heavy=1,light=4"


def test_spec_string_is_compact_and_default_is_wfq():
    assert FairShareConfig().spec_string() == "wfq"
    config = FairShareConfig(weights=(("a", 2.0),), max_inflight=8)
    assert config.spec_string() == "w:a=2;inflight:8"
