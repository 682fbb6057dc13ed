"""SLO-tier subsystem tests.

Covers the tier primitives end to end: mix parsing and deterministic
assignment, tier-free trace neutrality, the pure shedding policy (with
Hypothesis properties for priority monotonicity), and the acceptance
scenario — under degraded-mode chaos with a three-tier mix,
per-tier attainment is ordered by priority and shed counts are ordered
the opposite way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults import FaultInjector, ResilienceConfig
from repro.faults.config import TIER_ADMISSION_FRACTIONS, tier_inflight_limit
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.harness.invariants import check_run
from repro.harness.cell import Cell
from repro.models.registry import get_model
from repro.serving.request import (
    DEFAULT_TIER,
    TIER_PRIORITY,
    TIERS,
    Request,
    tier_ordered,
)
from repro.workloads.arrivals import TierMix
from repro.workloads.datasets import SHAREGPT
from repro.workloads.trace import generate_trace

MODEL = get_model("opt-13b")
MIX = "interactive=0.25,standard=0.5,best_effort=0.25"


def _req(rid, tier=DEFAULT_TIER, arrival=0.0):
    return Request(
        request_id=rid, prompt_tokens=8, output_tokens=2, arrival_time=arrival, tier=tier
    )


class TestTierBasics:
    def test_default_tier_is_standard(self):
        assert _req(0).tier == "standard"

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown SLO tier"):
            _req(0, tier="platinum")

    def test_priority_follows_tier_order(self):
        ranks = [_req(i, tier=t).priority for i, t in enumerate(TIERS)]
        assert ranks == sorted(ranks)
        assert ranks[0] < ranks[-1]

    def test_tier_ordered_is_stable_within_tier(self):
        reqs = [
            _req(0, "best_effort"),
            _req(1, "standard"),
            _req(2, "interactive"),
            _req(3, "standard"),
        ]
        ordered = tier_ordered(reqs)
        assert [r.tier for r in ordered] == [
            "interactive",
            "standard",
            "standard",
            "best_effort",
        ]
        # Stable: the two standard requests keep their submission order.
        assert [r.request_id for r in ordered if r.tier == "standard"] == [1, 3]

    def test_uniform_tier_sort_is_identity(self):
        reqs = [_req(i) for i in range(5)]
        assert [r.request_id for r in tier_ordered(reqs)] == list(range(5))


class TestTierMix:
    def test_parse_round_trips(self):
        mix = TierMix.parse(MIX)
        assert mix.spec_string() == MIX
        assert TierMix.parse(mix.spec_string()) == mix

    def test_probabilities_normalise(self):
        mix = TierMix.parse("interactive=2,best_effort=2")
        assert dict(mix.probabilities()) == {"interactive": 0.5, "best_effort": 0.5}

    @pytest.mark.parametrize(
        "bad",
        [
            "gold=1",
            "interactive=0.5,interactive=0.5",
            "standard=0",
            "standard=-1",
            "standard=abc",
            "standard",
            "",
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            TierMix.parse(bad)

    def test_sample_is_deterministic(self):
        mix = TierMix.parse(MIX)
        a = mix.sample(np.random.default_rng(7), 200)
        b = mix.sample(np.random.default_rng(7), 200)
        assert a == b
        assert set(a) <= set(TIERS)

    def test_sample_covers_all_weighted_tiers(self):
        mix = TierMix.parse(MIX)
        assert set(mix.sample(np.random.default_rng(0), 500)) == set(TIERS)


class TestTieredTraces:
    def test_trace_tiers_are_deterministic(self):
        kw = dict(rate=4.0, num_requests=60, seed=3, model=MODEL)
        mix = TierMix.parse(MIX)
        a = generate_trace(SHAREGPT, tier_mix=mix, **kw)
        b = generate_trace(SHAREGPT, tier_mix=mix, **kw)
        assert [r.tier for r in a] == [r.tier for r in b]
        assert set(r.tier for r in a) == set(TIERS)

    def test_mix_does_not_perturb_the_workload(self):
        # The tier stream is separate: arrivals and lengths are identical
        # with and without a mix (byte-identity of tier-free runs).
        kw = dict(rate=4.0, num_requests=60, seed=3, model=MODEL)
        plain = generate_trace(SHAREGPT, **kw)
        mixed = generate_trace(SHAREGPT, tier_mix=TierMix.parse(MIX), **kw)
        for p, m in zip(plain, mixed):
            assert (p.arrival_time, p.prompt_tokens, p.output_tokens) == (
                m.arrival_time,
                m.prompt_tokens,
                m.output_tokens,
            )
        assert all(r.tier == DEFAULT_TIER for r in plain)

    def test_rng_registry_lists_tiers_only_when_mixed(self):
        kw = dict(rate=4.0, num_requests=10, seed=0, model=MODEL)
        assert "root/tiers" not in generate_trace(SHAREGPT, **kw).rng_registry
        mixed = generate_trace(SHAREGPT, tier_mix=TierMix.parse(MIX), **kw)
        assert "root/tiers" in mixed.rng_registry


class TestShedPolicy:
    FRACTIONS = TIER_ADMISSION_FRACTIONS

    def test_nested_caps_shrink_with_priority(self):
        caps = [tier_inflight_limit(96, t, self.FRACTIONS) for t in TIERS]
        assert caps == sorted(caps, reverse=True)
        assert caps[0] > caps[-1]

    def test_standard_keeps_the_flat_cap(self):
        assert tier_inflight_limit(96, "standard", self.FRACTIONS) == 96

    def test_unknown_tier_gets_the_flat_cap(self):
        assert tier_inflight_limit(96, "gold", self.FRACTIONS) == 96

    def test_unlisted_tier_fraction_defaults_to_one(self):
        res = ResilienceConfig()
        assert res.tier_inflight_limit("gold") == res.degraded_inflight_limit


@st.composite
def _nonincreasing_fractions(draw):
    f_i = draw(st.floats(min_value=0.1, max_value=3.0))
    f_s = draw(st.floats(min_value=0.05, max_value=f_i))
    f_b = draw(st.floats(min_value=0.01, max_value=f_s))
    return (("interactive", f_i), ("standard", f_s), ("best_effort", f_b))


def _sheds(in_flight, limit, tier, fractions):
    """The degraded-mode admission rule: shed above the tier's nested cap."""
    return in_flight > tier_inflight_limit(limit, tier, fractions)


class TestShedMonotonicity:
    """Priority shedding is monotone: a tier is only ever shed once every
    lower-priority tier is already being shed at the same pressure."""

    @given(
        fractions=_nonincreasing_fractions(),
        in_flight=st.integers(min_value=0, max_value=400),
        limit=st.integers(min_value=1, max_value=200),
    )
    def test_shedding_a_tier_implies_shedding_all_lower_tiers(
        self, fractions, in_flight, limit
    ):
        sheds = [_sheds(in_flight, limit, t, fractions) for t in TIERS]
        for higher, lower in zip(sheds, sheds[1:]):
            assert not higher or lower

    @given(
        fractions=_nonincreasing_fractions(),
        in_flight=st.integers(min_value=0, max_value=400),
        limit=st.integers(min_value=1, max_value=200),
        tier=st.sampled_from(TIERS),
    )
    def test_monotone_in_pressure(self, fractions, in_flight, limit, tier):
        if _sheds(in_flight, limit, tier, fractions):
            assert _sheds(in_flight + 1, limit, tier, fractions)

    @given(
        fractions=_nonincreasing_fractions(),
        in_flight=st.integers(min_value=0, max_value=400),
        limit=st.integers(min_value=2, max_value=200),
        tier=st.sampled_from(TIERS),
    )
    def test_tighter_limit_never_sheds_less(self, fractions, in_flight, limit, tier):
        if _sheds(in_flight, limit, tier, fractions):
            assert _sheds(in_flight, limit - 1, tier, fractions)


@pytest.fixture(scope="module")
def tiered_crash_run():
    """Deterministic degraded-mode scenario with a symmetric tier mix.

    Every arrival instant carries one request of each tier (identical
    lengths), so by pointwise monotonicity of the nested caps the per-tier
    shed counts are exactly ordered — no seed sensitivity.
    """
    cell = Cell(shed_limit=8)
    system = cell.build()
    submitted = []
    for k in range(50):
        for j, tier in enumerate(TIERS):
            submitted.append(
                Request(
                    request_id=3 * k + j,
                    prompt_tokens=256,
                    output_tokens=48,
                    arrival_time=0.2 + k * 0.06,
                    tier=tier,
                )
            )
    plan = FaultPlan(
        name="test-crash",
        events=(FaultEvent(FaultKind.INSTANCE_CRASH, "decode", time=1.0, duration=2.0),),
    )
    FaultInjector(system, plan).arm()
    metrics = system.run_to_completion(list(submitted))
    return system, submitted, metrics, cell.slo()


class TestDegradedModeOrdering:
    """The ISSUE acceptance scenario: 3-tier mix under degraded-mode chaos."""

    def test_invariants_hold(self, tiered_crash_run):
        system, submitted, _, _ = tiered_crash_run
        assert check_run(system, submitted) == []

    def test_shed_counts_ordered_against_priority(self, tiered_crash_run):
        _, _, metrics, _ = tiered_crash_run
        shed = metrics.shed_by_tier()
        assert shed["interactive"] <= shed["standard"] <= shed["best_effort"]
        assert shed["interactive"] < shed["best_effort"]
        assert sum(shed.values()) > 0

    def test_attainment_ordered_by_priority(self, tiered_crash_run):
        # Judged against one common SLO with shed requests counted as
        # misses, so survivor bias cannot flatter the heavily shed tiers.
        _, _, metrics, slo = tiered_crash_run
        att = metrics.tier_attainment({t: slo for t in TIERS}, include_shed=True)
        assert att["interactive"] >= att["standard"] >= att["best_effort"]
        assert att["interactive"] > att["best_effort"]

    def test_displacement_only_sheds_untouched_requests(self, tiered_crash_run):
        _, _, metrics, _ = tiered_crash_run
        for request in metrics.shed:
            assert request.output_generated == 0
