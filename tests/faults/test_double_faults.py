"""Double-fault coverage: a second crash landing inside a recovery window.

Two windows matter: a member that is still restarting from its own crash
(overlapping member crashes), and a warm standby that is still warming up
after being promoted to replace a dead member.  In both cases the fleet
must keep every conservation and KV-lifecycle invariant — no request is
silently dropped, none runs twice, and no tier loses requests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.faults import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.harness import cell as cell_module
from repro.harness.cell import Cell
from repro.harness.invariants import check_run
from repro.models.registry import get_model
from repro.workloads.arrivals import TierMix
from repro.workloads.datasets import SHAREGPT
from repro.workloads.trace import generate_trace

MODEL = get_model("opt-13b")

TIER_MIX = "interactive=1,standard=1,best_effort=1"


def _run_double_fault(plan: FaultPlan, spec: Cell, n: int = 80, seed: int = 0):
    fleet = spec.build()
    workload = generate_trace(
        SHAREGPT,
        rate=2.0 * fleet.num_gpus,
        num_requests=n,
        seed=seed,
        model=MODEL,
        tier_mix=TierMix.parse(spec.tier_mix) if spec.tier_mix else None,
    )
    submitted = list(workload)
    FaultInjector(fleet, plan).arm()
    metrics = fleet.run_to_completion(submitted)
    return fleet, submitted, metrics


def _overlapping_member_crashes() -> FaultPlan:
    # member:2 dies while member:1 is still down and restarting.
    return FaultPlan(
        name="double-member-crash",
        events=(
            FaultEvent(FaultKind.INSTANCE_CRASH, "member:1", time=1.0, duration=1.5),
            FaultEvent(FaultKind.INSTANCE_CRASH, "member:2", time=1.6, duration=1.5),
        ),
    )


class TestCrashWhileRestarting:
    def test_invariants_hold_across_overlapping_crashes(self):
        spec = Cell(fleet_nodes=2)
        fleet, submitted, metrics = _run_double_fault(
            _overlapping_member_crashes(), spec
        )
        assert check_run(fleet, submitted) == []
        assert fleet.fleet_resilience_summary()["member_crashes"] == 2

    def test_no_request_completes_twice(self):
        spec = Cell(fleet_nodes=2)
        _, submitted, metrics = _run_double_fault(_overlapping_member_crashes(), spec)
        completed_ids = [r.request_id for r in metrics.completed]
        assert len(completed_ids) == len(set(completed_ids))
        assert len(metrics.completed) + len(metrics.shed) == len(submitted)

    def test_windows_actually_overlap(self):
        plan = _overlapping_member_crashes()
        first, second = plan.events
        assert first.time < second.time < first.end

    def test_tier_conservation_under_double_crash(self):
        spec = Cell(fleet_nodes=2, tier_mix=TIER_MIX)
        fleet, submitted, metrics = _run_double_fault(
            _overlapping_member_crashes(), spec
        )
        assert check_run(fleet, submitted) == []
        by_tier_in = Counter(r.tier for r in submitted)
        by_tier_out = Counter(r.tier for r in metrics.completed)
        by_tier_out.update(r.tier for r in metrics.shed)
        assert by_tier_out == by_tier_in


class TestCrashWhileStandbyWarming:
    @pytest.fixture(autouse=True)
    def _quarter_second_checks(self, monkeypatch):
        monkeypatch.setattr(cell_module, "STANDBY_CHECK_INTERVAL", 0.25)

    def _spec(self) -> Cell:
        # 2 nodes x 2 pairs with one parked standby; promotion takes 1s.
        return Cell(fleet_nodes=2, fleet_standby=1)

    def _plan(self) -> FaultPlan:
        # The first crash triggers failure-reactive promotion of the
        # standby; the second crash lands inside its 1s warm-up window.
        return FaultPlan(
            name="crash-while-warming",
            events=(
                FaultEvent(FaultKind.INSTANCE_CRASH, "member:0", time=1.0, duration=2.0),
                FaultEvent(FaultKind.INSTANCE_CRASH, "member:1", time=1.8, duration=1.5),
            ),
        )

    def test_invariants_hold_when_crash_hits_warmup_window(self):
        fleet, submitted, metrics = _run_double_fault(self._plan(), self._spec())
        assert check_run(fleet, submitted) == []
        assert fleet.fleet_resilience_summary()["member_crashes"] == 2
        # The standby was promoted (the fleet recorded a replacement).
        kinds = {e["kind"] for e in fleet.metrics.fault_events}
        assert "member-replace" in kinds

    def test_second_crash_lands_during_warmup(self):
        plan = self._plan()
        first, second = plan.events
        # Detection takes ~0.2s after the crash and warm-up takes 1s, so the
        # standby cannot be ready before ~2.2s; the second crash at 1.8s is
        # strictly inside that window.
        assert first.time < second.time < first.time + 0.2 + 1.0

    def test_no_double_runs_and_tiers_conserved(self):
        spec = replace(self._spec(), tier_mix=TIER_MIX)
        fleet, submitted, metrics = _run_double_fault(self._plan(), spec)
        assert check_run(fleet, submitted) == []
        completed_ids = [r.request_id for r in metrics.completed]
        assert len(completed_ids) == len(set(completed_ids))
        tier_in = Counter(r.tier for r in submitted)
        tier_out = Counter(r.tier for r in metrics.completed)
        tier_out.update(r.tier for r in metrics.shed)
        assert tier_out == tier_in
