"""Failure-reactive re-planning: widening, conservation, double faults."""

from __future__ import annotations

import pytest

from repro.core.config import FleetShape
from repro.core.fleet import build_windserve_fleet
from repro.core.replan import FleetReplanner
from repro.harness.invariants import check_kv_lifecycle, check_run
from repro.models.registry import get_model
from repro.serving.metrics import SLO
from repro.serving.system import SystemConfig
from repro.workloads.datasets import SHAREGPT
from repro.workloads.trace import generate_trace

#: Two narrow A800 members beside a wide H100 — killing the H100 leaves
#: six spare GPUs on each survivor's home node, so the replanner can
#: widen a 1x1+1x1 member (2 GPUs) all the way to 2x2+2x2 (8 GPUs).
MIXED = "a800:1:1x1+1x1,h100:1:2x1+2x1,a800:1:1x1+1x1"


def make_fleet(shape=MIXED, replan=True):
    fleet = build_windserve_fleet(
        SystemConfig(model=get_model("opt-13b"), slo=SLO(ttft=0.25, tpot=0.1)),
        pairs_per_node=1,
        policy="predicted-ttft",
        shape=FleetShape.parse(shape),
    )
    if replan:
        fleet.replanner = FleetReplanner()
    return fleet


def workload(fleet, n=60, seed=0):
    return list(
        generate_trace(
            SHAREGPT,
            rate=3.0 * fleet.num_gpus,
            num_requests=n,
            seed=seed,
            model=get_model("opt-13b"),
        )
    )


def member_gpus(member) -> set[int]:
    return {g for instance in member.instances for g in instance.gpus}


class TestReplanOnFailure:
    def run_crash(self, fleet, crash=1, until=0.4, rejoin=True):
        reqs = workload(fleet)
        fleet.load_workload(reqs)
        fleet.sim.run(until=until)
        fleet.fail_member(crash)
        if rejoin:
            # Close the fault window before draining, as the chaos
            # injector would — the invariant audit expects a clean fleet.
            fleet.sim.run(until=until + 0.3)
            fleet.restart_member(crash)
        fleet.sim.run_until_idle()
        return reqs

    def test_failure_widens_slowest_survivor(self):
        fleet = make_fleet()
        before = member_gpus(fleet.members[0])
        self.run_crash(fleet)
        record = fleet.replanner.replans[0]
        assert fleet.replanned_members == 1
        # Slowest prefill hardware first, index tie-break: member 0 (A800).
        assert record["member"] == fleet.members[0].name
        assert record["trigger"] == fleet.members[1].name
        after = member_gpus(fleet.members[0])
        assert before < after  # strictly wider, old GPUs kept
        assert len(after) == 8  # 1x1+1x1 -> 2x2+2x2 over the spare slots
        assert record["from"] != record["to"]

    def test_requeue_conservation(self):
        fleet = make_fleet()
        reqs = self.run_crash(fleet)
        assert check_run(fleet, reqs) == []
        record = fleet.replanner.replans[0]
        assert fleet.replan_requeues == record["requeued"]
        # Replan requeues are a subset of all retries (crash adds its own).
        assert fleet.retried >= fleet.replan_requeues

    def test_kv_lifecycle_across_rebuild(self):
        fleet = make_fleet()
        self.run_crash(fleet)
        # The rebuilt member archived its pre-replan pools into retired_kv;
        # the freed-exactly-once audit walks those too.
        assert check_kv_lifecycle(fleet.members[0]) == []

    def test_dead_member_gpus_never_reclaimed(self):
        fleet = make_fleet()
        dead_before = member_gpus(fleet.members[1])
        self.run_crash(fleet, rejoin=False)
        widened = member_gpus(fleet.members[0])
        assert widened.isdisjoint(dead_before)
        # The crashed member rejoins with its original placement intact.
        fleet.restart_member(1)
        assert member_gpus(fleet.members[1]) == dead_before
        assert fleet.eligible_members() == [0, 1, 2]

    def test_no_replan_without_replanner(self):
        fleet = make_fleet(replan=False)
        reqs = self.run_crash(fleet)
        assert fleet.replanned_members == 0
        assert fleet.replan_requeues == 0
        assert check_run(fleet, reqs) == []


class TestDoubleFault:
    def test_second_fault_hits_the_widened_member(self):
        fleet = make_fleet()
        reqs = workload(fleet, n=80)
        fleet.load_workload(reqs)
        fleet.sim.run(until=0.3)
        fleet.fail_member(1)  # H100 dies; member 0 widens to 8 GPUs
        assert fleet.replanned_members == 1
        fleet.sim.run(until=0.6)
        fleet.fail_member(0)  # now the freshly-widened member dies too
        # Member 2 is the only survivor and widens over its own spares.
        assert fleet.replanned_members == 2
        fleet.sim.run(until=0.9)
        fleet.restart_member(1)
        fleet.restart_member(0)
        fleet.sim.run_until_idle()
        assert check_run(fleet, reqs) == []
        for member in fleet.members:
            assert check_kv_lifecycle(member) == []

    def test_rebuilt_member_survives_crash_and_restart(self):
        fleet = make_fleet()
        reqs = workload(fleet, n=80)
        fleet.load_workload(reqs)
        fleet.sim.run(until=0.3)
        fleet.fail_member(1)
        fleet.sim.run(until=0.6)
        fleet.fail_member(0)
        fleet.restart_member(0)  # rejoins on its *widened* placement
        assert len(member_gpus(fleet.members[0])) == 8
        fleet.sim.run(until=0.9)
        fleet.restart_member(1)
        fleet.sim.run_until_idle()
        assert check_run(fleet, reqs) == []


class TestReplannerPolicy:
    def test_identity(self):
        assert FleetReplanner().identity() == "greedy"

    def test_identity_stamped_into_fleet_policy(self):
        fleet = make_fleet()
        assert dict(fleet.policy_identity())["replan"] == "greedy"
        bare = make_fleet(replan=False)
        assert "replan" not in dict(bare.policy_identity())

    def test_candidates_never_shrink_an_instance(self):
        fleet = make_fleet()
        replanner = fleet.replanner
        member = fleet.members[1]  # 2x1+2x1: prefill 2, decode 2
        for p_par, d_par in replanner._eligible_candidates(member, budget=8):
            assert p_par[0] * p_par[1] >= 2
            assert d_par[0] * d_par[1] >= 2
            assert p_par[0] * p_par[1] + d_par[0] * d_par[1] > 4

    def test_no_eligible_candidate_means_no_replan(self):
        fleet = make_fleet()
        member = fleet.members[1]
        # Budget equal to the current footprint leaves nothing wider.
        assert fleet.replanner._choose(member, budget=4) is None

    def test_span_node_members_are_skipped(self, monkeypatch):
        fleet = make_fleet()
        monkeypatch.setattr(
            fleet, "member_nodes", lambda index: frozenset({0, 1})
        )
        fleet.crash_member(1)
        fleet.replanner.on_member_failure(fleet, 1)
        assert fleet.replanner.replans == []
        assert fleet.replanned_members == 0

    def test_replan_refuses_downed_members(self):
        fleet = make_fleet()
        fleet.crash_member(1)
        with pytest.raises(RuntimeError, match="survivors"):
            fleet.replan_member(1, fleet.members[1].placement)
