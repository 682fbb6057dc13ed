"""Fleet-scoped fault injection: detection, re-routing, promotion, accounting."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.autoscaler import AutoscalerConfig, AutoscalingFleet
from repro.core.fleet import build_windserve_fleet
from repro.core.windserve import WindServeSystem
from repro.faults import (
    FAULT_PLAN_NAMES,
    FLEET_FAULT_PLAN_NAMES,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    build_fleet_fault_plan,
)
from repro.faults.config import DETECTION_DELAY_S, HEARTBEAT_INTERVAL_S
from repro.hardware.cluster import ClusterTopology
from repro.harness import cell as cell_module
from repro.harness.cell import Cell
from repro.models.parallelism import ParallelConfig
from repro.models.registry import get_model
from repro.serving.metrics import SLO
from repro.serving.placement import Placement
from repro.serving.system import SystemConfig
from repro.sim.engine import Simulator
from repro.workloads.datasets import SHAREGPT
from repro.workloads.trace import generate_trace

MODEL = get_model("opt-13b")


def make_config() -> SystemConfig:
    return SystemConfig(model=MODEL, slo=SLO(ttft=0.25, tpot=0.1))


def make_fleet(num_nodes=2, policy="round-robin", span_nodes=False):
    cluster = ClusterTopology(num_nodes=num_nodes, gpus_per_node=8)
    return build_windserve_fleet(
        make_config(), cluster, policy=policy, span_nodes=span_nodes
    )


def make_autoscaling_fleet(initially_active=2, startup_delay=1.0):
    cluster = ClusterTopology(num_nodes=2, gpus_per_node=8)
    return build_windserve_fleet(
        make_config(),
        cluster,
        policy="round-robin",
        fleet_factory=lambda members, policy: AutoscalingFleet(
            members,
            policy=policy,
            autoscaler=AutoscalerConfig(startup_delay=startup_delay),
            initially_active=initially_active,
        ),
    )


def trace(rate_total, n=80, seed=0):
    return generate_trace(SHAREGPT, rate=rate_total, num_requests=n, seed=seed, model=MODEL)


def _advance(fleet, seconds):
    fleet.sim.call_at(fleet.sim.now + seconds, lambda: None)
    fleet.sim.run_until_idle()


class TestScaleOutSkipsFailed:
    def test_scale_out_never_selects_failed_standby(self):
        fleet = make_autoscaling_fleet(initially_active=2)
        fleet.fail_member(2)  # a standby dies
        started = fleet._scale_out()
        assert started == 3  # not the dead member
        assert 2 not in fleet._starting

    def test_no_standby_left_returns_none(self):
        fleet = make_autoscaling_fleet(initially_active=3)
        fleet.fail_member(3)
        assert fleet._scale_out() is None

    def test_fail_member_clears_active(self):
        fleet = make_autoscaling_fleet(initially_active=4)
        assert fleet.num_active == 4
        fleet.fail_member(1)
        assert fleet.active[1] is False
        # The failure-reactive promotion started warming a standby, but
        # nothing is active again until the startup delay elapses.
        assert fleet.num_active == 3


class TestGpuHoursAccounting:
    def test_dead_member_stops_billing(self):
        fleet = make_autoscaling_fleet(initially_active=4)
        # 4 members x 4 GPUs, all active.
        _advance(fleet, 10.0)
        assert fleet.gpu_hours_used() == pytest.approx(16 * 10.0)
        fleet.fail_member(1)  # no standby to promote
        _advance(fleet, 10.0)
        assert fleet.gpu_hours_used() == pytest.approx(16 * 10.0 + 12 * 10.0)

    def test_heterogeneous_members_billed_by_own_gpus(self):
        cluster = ClusterTopology(num_nodes=1, gpus_per_node=8)
        sim = Simulator()
        config = make_config()
        big = WindServeSystem(
            config,
            placement=Placement(
                prefill_gpus=(0, 1),
                decode_gpus=(2, 3),
                prefill_parallel=ParallelConfig(tp=2),
                decode_parallel=ParallelConfig(tp=2),
            ),
            topology=cluster,
            sim=sim,
        )
        small = WindServeSystem(
            config,
            placement=Placement(
                prefill_gpus=(4,),
                decode_gpus=(5,),
                prefill_parallel=ParallelConfig(tp=1),
                decode_parallel=ParallelConfig(tp=1),
            ),
            topology=cluster,
            sim=sim,
        )
        big.name, small.name = "big", "small"
        fleet = AutoscalingFleet(
            [big, small],
            policy="round-robin",
        )
        _advance(fleet, 10.0)
        assert fleet.gpu_hours_used() == pytest.approx((4 + 2) * 10.0)
        fleet.fail_member(1)  # the 2-GPU member dies
        _advance(fleet, 10.0)
        assert fleet.gpu_hours_used() == pytest.approx(60.0 + 4 * 10.0)


class TestMergedMetrics:
    def test_shed_and_fault_events_survive_merging(self):
        fleet = make_fleet()
        request = next(iter(trace(8.0, n=1)))
        fleet.members[0].metrics.record_shed(request)
        fleet.members[0].metrics.record_fault_event("crash", "decode", 1.0)
        fleet.metrics.record_fault_event("member-crash", fleet.members[0].name, 1.0)
        merged = fleet.merged_metrics()
        assert len(merged.shed) == 1
        kinds = {e["kind"] for e in merged.fault_events}
        assert kinds == {"crash", "member-crash"}

    def test_member_fault_targets_are_namespaced(self):
        fleet = make_fleet()
        fleet.members[1].metrics.record_fault_event("crash", "decode", 1.0)
        merged = fleet.merged_metrics()
        (event,) = merged.fault_events
        assert event["target"] == f"{fleet.members[1].name}:decode"


class TestSubmitAccounting:
    def test_fleet_submit_flows_through_arrive(self):
        fleet = make_fleet()
        requests = list(trace(32.0, n=40))
        fleet.run_to_completion(requests)
        assert sum(m.submitted for m in fleet.members) == 40
        assert sum(fleet.routed) == 40


def run_fleet_chaos(**kw):
    """One fleet chaos cell on the default 2-node x 2-pair fleet."""
    return Cell(**{"rate_per_gpu": 2.0, "num_requests": 160, "fleet_nodes": 2, **kw}).run()


class TestDetectionWindow:
    def test_detection_latency_is_positive_and_bounded(self):
        result = run_fleet_chaos(fault_plan="member-crash", num_requests=60)
        assert result.passed, result.violations
        latency = result.target.fleet_resilience_summary()["member_detection_latency_s"]
        assert latency > 0
        assert latency <= DETECTION_DELAY_S + HEARTBEAT_INTERVAL_S + 1e-9

    def test_undetected_crash_restart_resubmits(self):
        fleet = make_fleet()
        requests = list(trace(32.0, n=60))
        horizon = max(r.arrival_time for r in requests)
        fleet.load_workload(requests)
        fleet.sim.call_at(0.4 * horizon, fleet.crash_member, 1)
        fleet.sim.call_at(0.8 * horizon, fleet.restart_member, 1)
        fleet.sim.run_until_idle()
        assert all(r.finished for r in requests)
        assert fleet.retried > 0
        assert not fleet.crashed and not fleet.failed


class TestFleetTargets:
    def test_member_straggler_slows_every_instance_then_restores(self):
        fleet = make_fleet()
        event = FaultEvent(
            FaultKind.STRAGGLER, "member:0", time=0.5, duration=1.0, magnitude=3.0
        )
        FaultInjector(fleet, FaultPlan(name="member-straggler", events=(event,))).arm()
        during = {}
        fleet.sim.call_at(
            1.0,
            lambda: during.update(
                (index, [i.compute_slowdown for i in member.instances])
                for index, member in enumerate(fleet.members)
            ),
        )
        fleet.run_to_completion(trace(16.0, n=40))
        assert during[0] == [3.0] * len(fleet.members[0].instances)
        assert all(s == [1.0] * len(s) for index, s in during.items() if index)
        stragglers = [e for e in fleet.metrics.fault_events if e["kind"] == "straggler"]
        assert stragglers == [
            {"kind": "straggler", "target": fleet.members[0].name, "time": 0.5}
        ]
        assert all(
            i.compute_slowdown == 1.0 for member in fleet.members for i in member.instances
        )

    def test_unknown_targets_raise(self):
        scope = FaultInjector(make_fleet(), FaultPlan(name="none", events=())).scope
        with pytest.raises(ValueError, match="matches no fleet member"):
            scope.units("member:99")
        with pytest.raises(ValueError, match="no fleet member has a GPU on node"):
            scope.units("node:7")
        with pytest.raises(ValueError, match="unknown fleet fault target"):
            scope.units("decode")
        with pytest.raises(ValueError, match="fleet link faults target NICs"):
            scope.links("pd")


class TestFleetChaosEndToEnd:
    def test_node_crash_conserves_requests_across_nodes(self):
        result = run_fleet_chaos(fault_plan="node-crash", num_requests=80)
        assert result.passed, result.violations
        metrics = result.metrics
        assert len(metrics.completed) + len(metrics.shed) == len(result.submitted) == 80
        fleet_resilience = result.target.fleet_resilience_summary()
        assert fleet_resilience["member_crashes"] == 2
        assert result.target.cross_node_retries > 0
        assert fleet_resilience["member_downtime_s"] > 0

    def test_nic_outage_forces_transfer_retries(self):
        result = run_fleet_chaos(fault_plan="nic-outage", num_requests=60, fleet_span_nodes=True)
        assert result.passed, result.violations
        assert result.metrics.resilience_summary()["transfer_retries"] > 0
        # A NIC fault degrades transfers; it must not kill members.
        assert result.target.fleet_resilience_summary()["member_crashes"] == 0

    def test_fleet_mixed_with_spanning_members(self):
        result = run_fleet_chaos(
            fault_plan="fleet-mixed", num_requests=60, fleet_nodes=3, fleet_span_nodes=True
        )
        assert result.passed, result.violations
        assert len(result.metrics.completed) + len(result.metrics.shed) == len(result.submitted)

    def test_correlated_node_crash_of_every_member_rejected(self):
        # With 2 nodes and spanning pairs every member touches node 1, so a
        # node-1 crash would take out the whole fleet; detection refuses to
        # declare the last member rather than route into nothing.
        with pytest.raises(RuntimeError, match="every fleet member"):
            run_fleet_chaos(fault_plan="node-crash", num_requests=40, fleet_span_nodes=True)


class TestStandbyPromotion:
    def test_replacement_within_startup_delay(self, monkeypatch):
        monkeypatch.setattr(cell_module, "STANDBY_STARTUP_DELAY", 0.5)
        result = run_fleet_chaos(fault_plan="member-crash", num_requests=60, fleet_standby=1)
        assert result.passed, result.violations
        lag = result.target.fleet_resilience_summary()["replacement_lag_s"]
        assert lag == pytest.approx(0.5, abs=1e-6)

    def test_promotion_records_member_replace_event(self):
        fleet = make_autoscaling_fleet(initially_active=3, startup_delay=2.0)
        fleet.fail_member(0)
        assert 3 in fleet._replacing
        _advance(fleet, 2.0)
        assert fleet.active[3] is True
        assert fleet.replacement_lags == [pytest.approx(2.0)]
        kinds = {e["kind"] for e in fleet.metrics.fault_events}
        assert "member-replace" in kinds


class TestFleetPlans:
    def test_plan_builder_is_deterministic(self):
        a = build_fleet_fault_plan("fleet-mixed", horizon=10.0, seed=3)
        b = build_fleet_fault_plan("fleet-mixed", horizon=10.0, seed=3)
        assert a.describe() == b.describe()

    def test_seed_changes_schedule(self):
        a = build_fleet_fault_plan("member-crash", horizon=10.0, seed=0)
        b = build_fleet_fault_plan("member-crash", horizon=10.0, seed=1)
        assert a.describe() != b.describe()

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError, match="unknown fleet fault plan"):
            build_fleet_fault_plan("bogus", horizon=10.0)

    def test_registries_are_separate(self):
        assert "member-crash" in FLEET_FAULT_PLAN_NAMES
        assert "member-crash" not in FAULT_PLAN_NAMES
        assert "decode-crash" not in FLEET_FAULT_PLAN_NAMES


FLEET_SMOKE = "run --rate 3 --requests 24 --nodes 2 --standby 1 --fault-plan".split()


class TestFleetChaosCli:
    def test_fleet_smoke_passes(self, capsys):
        # ``run`` exits 1 when its run breaks the invariant suite.
        assert main([*FLEET_SMOKE, "member-crash", "--json"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["counters"]["instance_crash"] >= 1  # the member's instances
        assert err == ""

    def test_unknown_fleet_plan_rejected(self, capsys):
        assert main([*FLEET_SMOKE, "bogus"]) == 2
        assert "unknown fleet fault plan" in capsys.readouterr().err
