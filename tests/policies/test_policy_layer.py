"""Scheduling-policy layer tests.

Covers the registries and interfaces (``repro.policies``), policy identity
in the run fingerprint, the tier-aware router's ordering property
(Hypothesis), the predicted-TTFT seconds normalisation for non-WindServe
members, and the two acceptance scenarios from the ROADMAP items this
layer ships:

* tier-aware fleet routing raises interactive-tier SLO attainment over
  ``least-loaded`` in a tiered member-crash fleet chaos run;
* preemptive displacement admits interactive arrivals that ``nested-caps``
  would shed, by swapping out running best-effort decodes — while
  conserving every request.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.cell import Cell
from repro.harness.cell import Cell
from repro.harness.invariants import check_run
from repro.models.registry import get_model
from repro.policies import (
    ADMISSION_POLICIES,
    FINGERPRINT_BASELINES,
    PREEMPTION_POLICIES,
    ROUTING_POLICIES,
    PolicyRegistry,
    policy_identity,
)
from repro.policies.routing import PredictedTTFTRouting, TierAwareRouting
from repro.serving.instance import InstanceConfig
from repro.serving.metrics import SLO
from repro.serving.request import Request
from repro.sim.fingerprint import RunFingerprint

MODEL = get_model("opt-13b")


def _req(rid, tier="standard", prompt=64, arrival=0.0):
    return Request(
        request_id=rid,
        prompt_tokens=prompt,
        output_tokens=8,
        arrival_time=arrival,
        tier=tier,
    )


# -- registries ----------------------------------------------------------------


class TestPolicyRegistry:
    def test_unknown_name_raises(self):
        for registry in (ROUTING_POLICIES, ADMISSION_POLICIES, PREEMPTION_POLICIES):
            with pytest.raises(ValueError, match="unknown policy"):
                registry.create("no-such-policy")

    def test_duplicate_registration_raises(self):
        class Stub:
            pass

        registry = PolicyRegistry("test")
        registry.register("p")(Stub)
        with pytest.raises(ValueError, match="registered twice"):
            registry.register("p")(Stub)

    def test_defaults_register_first(self):
        # CLI choices and error messages lead with the baseline behaviour.
        assert ROUTING_POLICIES.names()[0] == "round-robin"
        assert ADMISSION_POLICIES.names()[0] == "nested-caps"
        assert PREEMPTION_POLICIES.names()[0] == "latest-arrived"

    def test_full_rosters(self):
        assert set(ROUTING_POLICIES.names()) == {
            "round-robin",
            "least-loaded",
            "predicted-ttft",
            "tier-aware",
            "prefix-affinity",
        }
        assert set(ADMISSION_POLICIES.names()) == {
            "nested-caps",
            "fair-share",
            "preemptive",
        }
        assert set(PREEMPTION_POLICIES.names()) == {"latest-arrived", "tier-aware"}

    def test_contains_and_factory_name(self):
        assert "tier-aware" in ROUTING_POLICIES
        assert "bogus" not in ROUTING_POLICIES
        assert ROUTING_POLICIES.create("tier-aware").name == "tier-aware"


# -- fingerprint identity ------------------------------------------------------


class TestPolicyIdentity:
    def test_baselines_carry_no_identity(self):
        assert policy_identity(**FINGERPRINT_BASELINES) == ()
        assert policy_identity(router=None, admission=None) == ()

    def test_non_baseline_pairs_sorted(self):
        pairs = policy_identity(router="tier-aware", admission="preemptive")
        assert pairs == (("admission", "preemptive"), ("router", "tier-aware"))

    def test_fingerprint_omits_empty_policies(self):
        fp = RunFingerprint(trace_hash="t", requests_hash="r", rng_hash="g")
        assert "policies" not in fp.as_dict()
        # Old goldens (recorded pre-layer) therefore keep their digests.
        same = RunFingerprint(trace_hash="t", requests_hash="r", rng_hash="g", policies=())
        assert fp.value == same.value

    def test_fingerprint_includes_non_baseline_policies(self):
        base = RunFingerprint(trace_hash="t", requests_hash="r", rng_hash="g")
        tiered = RunFingerprint(
            trace_hash="t",
            requests_hash="r",
            rng_hash="g",
            policies=(("router", "tier-aware"),),
        )
        assert tiered.as_dict()["policies"] == {"router": "tier-aware"}
        assert tiered.value != base.value
        assert any("polic" in line for line in base.explain_mismatch(tiered))

    def test_system_identity_default_is_empty(self):
        system = Cell(rate_per_gpu=1.0).build()
        assert system.policy_identity() == ()

    def test_system_identity_reports_deviations(self):
        system = Cell(
            rate_per_gpu=1.0,
            admission_policy="preemptive",
            instance_config=InstanceConfig(preemption_policy="tier-aware"),
        ).build()
        assert system.policy_identity() == (
            ("admission", "preemptive"),
            ("preemption", "tier-aware"),
        )


# -- tier-aware routing --------------------------------------------------------


class _StubMember:
    def __init__(self, counts):
        self._counts = counts

    def in_flight_by_tier(self):
        return dict(self._counts)


class _StubFleet:
    def __init__(self, members):
        self.members = members


member_counts = st.fixed_dictionaries(
    {
        "interactive": st.integers(min_value=0, max_value=12),
        "standard": st.integers(min_value=0, max_value=12),
        "best_effort": st.integers(min_value=0, max_value=12),
    }
)


class TestTierAwareRouting:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(member_counts, min_size=1, max_size=6))
    def test_interactive_never_joins_heavier_member_than_best_effort(self, counts):
        """The ISSUE property: at the same instant, tier-aware never assigns
        an interactive request to a strictly more-loaded member than it
        assigns a best-effort request."""
        policy = TierAwareRouting()
        fleet = _StubFleet([_StubMember(c) for c in counts])
        candidates = list(range(len(fleet.members)))
        hot = policy.select(fleet, candidates, _req(0, tier="interactive"))
        cold = policy.select(fleet, candidates, _req(1, tier="best_effort"))
        assert policy.weighted_load(fleet.members[hot]) <= policy.weighted_load(
            fleet.members[cold]
        )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(member_counts, min_size=1, max_size=6))
    def test_interactive_choice_is_weighted_argmin(self, counts):
        policy = TierAwareRouting()
        fleet = _StubFleet([_StubMember(c) for c in counts])
        candidates = list(range(len(fleet.members)))
        chosen = policy.select(fleet, candidates, _req(0, tier="interactive"))
        loads = [policy.weighted_load(m) for m in fleet.members]
        assert loads[chosen] == min(loads)

    def test_interactive_work_weighs_heavier(self):
        policy = TierAwareRouting()
        busy_interactive = _StubMember({"interactive": 2})
        busy_best_effort = _StubMember({"best_effort": 2})
        assert policy.weighted_load(busy_interactive) > policy.weighted_load(
            busy_best_effort
        )


# -- predicted-ttft normalisation (satellite fix) ------------------------------


class TestPredictedTTFTFallback:
    def test_non_windserve_member_scores_in_seconds(self):
        """A vLLM member's score is an estimated TTFT in seconds — the
        prompt through its own prefill latency model — not the old raw
        request count (which mis-ranked mixed fleets)."""
        member = Cell(system="vllm", rate_per_gpu=1.0).build()
        request = _req(0, prompt=256)
        score = PredictedTTFTRouting.predicted_ttft(member, request)
        expected = min(
            inst.latency.prefill(request.prompt_tokens).duration
            for inst in member.instances
        )
        assert score == pytest.approx(expected)
        # An idle member's queue is empty, so the old fallback returned 0
        # requests; the analytic score is a strictly positive duration.
        assert 0.0 < score < 10.0

    def test_all_instances_down_falls_back_to_load(self):
        member = Cell(system="vllm", rate_per_gpu=1.0).build()
        for inst in member.instances:
            inst.failed = True
        assert PredictedTTFTRouting.predicted_ttft(member, _req(0)) == 0.0


# -- preemptive displacement (acceptance) --------------------------------------

PREEMPT_KW = dict(
    system="windserve",
    fault_plan="prefill-crash",
    rate_per_gpu=5.0,
    num_requests=80,
    seed=11,
    tier_mix="interactive=0.5,standard=0.2,best_effort=0.3",
)


def _run_degraded_chaos(admission_policy):
    """One tiered prefill-crash chaos run, returning (system, metrics, sent)."""
    cell = Cell(shed_limit=4, admission_policy=admission_policy, **PREEMPT_KW)
    # Capture the preempt-displace rows.
    run = cell.run(trace_tags=frozenset({"preempt-displace"}))
    return run.target, run.metrics, run.submitted


@pytest.fixture(scope="module")
def preemption_runs():
    return {
        name: _run_degraded_chaos(name) for name in ("nested-caps", "preemptive")
    }


class TestPreemptiveDisplacement:
    def test_preemption_fires_and_is_traced(self, preemption_runs):
        system, metrics, _ = preemption_runs["preemptive"]
        assert metrics.counters.get("preempt_displaced", 0) > 0
        traced = system.trace.filter(tag="preempt-displace")
        assert len(traced) == metrics.counters["preempt_displaced"]
        # Victims are strictly lower tiers — never interactive.
        assert all(r.payload["tier"] != "interactive" for r in traced)
        assert metrics.counters.get("preempt_displaced[best_effort]", 0) > 0

    def test_baseline_never_preempts(self, preemption_runs):
        _, metrics, _ = preemption_runs["nested-caps"]
        assert metrics.counters.get("preempt_displaced", 0) == 0

    def test_interactive_sheds_eliminated(self, preemption_runs):
        """The ISSUE acceptance: an interactive request that nested-caps
        would shed is admitted by swapping out a running best-effort
        decode."""
        _, nested, _ = preemption_runs["nested-caps"]
        _, preemptive, _ = preemption_runs["preemptive"]
        nested_int = sum(1 for r in nested.shed if r.tier == "interactive")
        preempt_int = sum(1 for r in preemptive.shed if r.tier == "interactive")
        assert nested_int > 0  # the scenario actually pressures interactive
        assert preempt_int < nested_int
        assert len(preemptive.completed) > len(nested.completed)

    def test_preemption_conserves_requests(self, preemption_runs):
        """Preempted requests are swapped out, not lost: both runs keep
        every chaos invariant (conservation, KV lifecycle, clean drain)."""
        for name, (system, _, submitted) in preemption_runs.items():
            assert check_run(system, submitted) == [], name

    def test_preemptive_runs_carry_policy_fingerprint(self, preemption_runs):
        system, _, _ = preemption_runs["preemptive"]
        assert system.policy_identity() == (("admission", "preemptive"),)


def test_displacement_checks_cpu_room_against_the_settled_block_count():
    """A running victim's allocation lags the blocks its lane's clock
    charged.  ``victim`` (31 cached tokens, two blocks) starts a third block
    on its second iteration; the CPU pool holds two blocks, so the stale
    count would pass the room check and the swap-out would then overflow."""
    from types import SimpleNamespace

    from repro.hardware.gpu import GB
    from repro.models.registry import get_model as model
    from repro.sim.trace import TraceLog
    from tests.serving.test_instance import decode_ready_request, make_instance

    inst, sim = make_instance(cpu_swap_gb=40 * model("opt-13b").kv_bytes_per_token / GB)
    assert inst.kv.free_cpu_blocks == 2
    victim = decode_ready_request(1, prompt=30, output=10)
    victim.tier = "best_effort"
    inst.kv.allocate(1, victim.context_tokens)
    inst.waiting.append(victim)
    system = SimpleNamespace(
        instances=[inst], metrics=inst.metrics, trace=TraceLog(enabled=False), sim=sim
    )
    policy = ADMISSION_POLICIES.create("preemptive")
    seen = []
    finish = inst.finish_decode_iteration

    def finish_then_displace(lane, batch):
        finish(lane, batch)
        if lane.step == 2 and not seen:
            seen.append(inst.kv.get(1).blocks)
            seen.append(policy.displace_running(system, _req(9, tier="interactive")))

    inst.finish_decode_iteration = finish_then_displace
    inst.kick()
    sim.run()
    assert seen == [2, False]
    assert inst.metrics.counters.get("preempt_displaced", 0) == 0
    assert victim.finished


# -- tier-aware fleet routing (acceptance) -------------------------------------

FLEET_KW = dict(
    fault_plan="member-crash",
    rate_per_gpu=2.0,
    num_requests=48,
    seed=12,
    fleet_nodes=2,
    tier_mix="interactive=0.25,standard=0.5,best_effort=0.25",
)


#: Each tier is judged against the run's SLO scaled by its tier:
#: interactive tightens both targets, best_effort relaxes them.
TIER_SLO_SCALE = {"interactive": 0.8, "standard": 1.0, "best_effort": 2.5}


def _tier_report(run):
    base = run.cell.slo()
    slos = {
        tier: SLO(ttft=base.ttft * scale, tpot=base.tpot * scale)
        for tier, scale in TIER_SLO_SCALE.items()
    }
    metrics = run.metrics
    attainment, shed = metrics.tier_attainment(slos), metrics.shed_by_tier()
    report = {}
    for tier, slo in slos.items():
        done = [r for r in metrics.completed if r.tier == tier]
        report[tier] = {
            "completed": len(done),
            "shed": shed[tier],
            "goodput": sum(slo.met_by(r) for r in done),
            "attainment": attainment[tier],
        }
    return report


@pytest.fixture(scope="module")
def fleet_runs():
    return {
        policy: Cell(fleet_policy=policy, **FLEET_KW).run()
        for policy in ("least-loaded", "tier-aware")
    }


class TestTierAwareFleetAcceptance:
    def test_invariants_hold_under_both_routers(self, fleet_runs):
        for policy, result in fleet_runs.items():
            assert result.passed, (policy, result.violations)

    def test_tier_aware_raises_interactive_attainment(self, fleet_runs):
        """The ISSUE acceptance: tier-aware routing demonstrably raises
        interactive-tier SLO attainment over least-loaded in a tiered
        member-crash fleet."""
        base = _tier_report(fleet_runs["least-loaded"])["interactive"]
        tiered = _tier_report(fleet_runs["tier-aware"])["interactive"]
        assert tiered["attainment"] > base["attainment"]
        assert tiered["goodput"] >= base["goodput"]

    def test_best_effort_not_sacrificed(self, fleet_runs):
        # Routing best-effort to the hot member absorbs stragglers without
        # collapsing that tier's throughput.
        base = _tier_report(fleet_runs["least-loaded"])["best_effort"]
        tiered = _tier_report(fleet_runs["tier-aware"])["best_effort"]
        assert tiered["completed"] + tiered["shed"] == base["completed"] + base["shed"]
        assert tiered["goodput"] >= base["goodput"]

    def test_non_default_router_fingerprinted(self, fleet_runs):
        assert (
            fleet_runs["tier-aware"].fingerprint
            != fleet_runs["least-loaded"].fingerprint
        )


# -- CLI wiring ----------------------------------------------------------------


class TestCLIPolicyFlags:
    def test_router_and_admission_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--rate", "3", "--nodes", "2", "--router", "tier-aware"]
            + ["--admission", "preemptive"]
        )
        assert args.router == "tier-aware"
        assert args.admission == "preemptive"

    def test_choices_come_from_registries(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--rate", "3", "--router", "no-such-router"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--rate", "3", "--admission", "no-such-admission"])

    def test_defaults_are_baseline(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "--rate", "3"])
        assert args.router is None
        assert args.admission == "nested-caps"
