"""Tests for fault delivery: injector, link-fault model, heartbeat monitor."""

from __future__ import annotations

import pytest

from repro.faults.config import DETECTION_DELAY_S, HEARTBEAT_INTERVAL_S, HEARTBEAT_MISS_THRESHOLD
from repro.faults.detection import HeartbeatMonitor
from repro.faults.injector import FaultInjector
from repro.faults.links import LinkFaultModel
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan

from tests.core.test_windserve import make_system, request


def workload(n=30, spacing=0.02, prompt=200, output=5):
    return [request(i, prompt=prompt, output=output, arrival=i * spacing) for i in range(n)]


def plan_of(*events):
    return FaultPlan(name="custom", events=tuple(events), seed=0)


class _L:
    def __init__(self, name):
        self.name = name


class TestLinkFaultModel:
    def test_rejects_empty_window(self):
        model = LinkFaultModel()
        with pytest.raises(ValueError):
            model.add_outage("nvlink-0", 2.0, 2.0)

    def test_point_query(self):
        model = LinkFaultModel()
        model.add_outage("a", 1.0, 2.0)
        links = [_L("a"), _L("b")]
        assert not model.is_down(0.5, links)
        assert model.is_down(1.0, links)
        assert model.is_down(1.999, links)
        assert not model.is_down(2.0, links)

    def test_up_after_chains_overlapping_windows(self):
        model = LinkFaultModel()
        model.add_outage("a", 1.0, 2.0)
        model.add_outage("b", 1.9, 3.0)
        links = [_L("a"), _L("b")]
        assert model.up_after(1.5, links) == 3.0
        assert model.up_after(3.0, links) == 3.0


class TestHeartbeatMonitor:
    def test_validates_parameters(self):
        system = make_system()
        with pytest.raises(ValueError):
            HeartbeatMonitor(system, 0.0, 3)
        with pytest.raises(ValueError):
            HeartbeatMonitor(system, 0.05, 0)

    def test_detection_waits_for_miss_threshold(self):
        system = make_system()
        monitor = HeartbeatMonitor(system, 0.05, 3)
        monitor.start(until=1.0)
        system.sim.call_at(0.2, lambda: system.register_crash(
            system.decode_instance, system.decode_instance.fail()
        ))
        system.sim.run(until=1.0)
        detects = [e for e in system.metrics.fault_events if e["kind"] == "detect"]
        assert len(detects) == 1
        # Staleness is measured from the last healthy beat, which precedes
        # the crash by up to one interval: latency in [stale - interval, stale].
        assert 0.15 - 0.05 - 1e-9 <= detects[0]["time"] - 0.2 <= 0.15 + 1e-9


class TestInjectorArming:
    def test_rearm_raises(self):
        system = make_system()
        injector = FaultInjector(system, plan_of())
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()

    def test_empty_plan_is_inert(self):
        system = make_system()
        injector = FaultInjector(system, plan_of())
        injector.arm()
        assert injector.monitor is None
        system.run_to_completion(workload(n=5))
        assert len(system.metrics.completed) == 5
        assert system.metrics.fault_events == []

    def test_unknown_targets_raise(self):
        system = make_system()
        injector = FaultInjector(system, plan_of())
        with pytest.raises(ValueError, match="matches no instance"):
            injector.scope.units("bogus")
        with pytest.raises(ValueError, match="unknown link fault target"):
            injector.scope.links("bogus")

    def test_role_targets_resolve(self):
        system = make_system()
        injector = FaultInjector(system, plan_of())
        assert injector.scope.units("prefill") == [system.prefill_instance]
        assert injector.scope.units("decode") == [system.decode_instance]
        assert injector.scope.links("pd")
        assert injector.scope.links("host:decode")


class TestCrashLifecycle:
    def test_crash_detect_recover(self):
        system = make_system()
        event = FaultEvent(FaultKind.INSTANCE_CRASH, "decode", time=0.2, duration=1.0)
        FaultInjector(system, plan_of(event)).arm()
        metrics = system.run_to_completion(workload())

        counters = metrics.counters
        assert counters.get("instance_crash") == 1
        assert counters.get("instance_recover") == 1
        events = [e["kind"] for e in metrics.fault_events]
        assert events.count("crash") == 1
        assert "detect" in events
        assert "recover" in events
        assert not system.known_failed
        assert not system.decode_instance.failed
        assert len(metrics.completed) + len(metrics.shed) == 30

    def test_detection_latency_measured(self):
        system = make_system()
        event = FaultEvent(FaultKind.INSTANCE_CRASH, "decode", time=0.2, duration=1.0)
        FaultInjector(system, plan_of(event)).arm()
        system.run_to_completion(workload())
        summary = system.metrics.resilience_summary()
        stale = HEARTBEAT_MISS_THRESHOLD * HEARTBEAT_INTERVAL_S
        assert summary["detection_latency_s"] >= stale - HEARTBEAT_INTERVAL_S - 1e-9
        assert summary["detection_latency_s"] <= DETECTION_DELAY_S + 1e-9
        assert summary["downtime_s"] >= 1.0 - 1e-9

    def test_crash_during_idle_is_harmless(self):
        system = make_system()
        event = FaultEvent(FaultKind.INSTANCE_CRASH, "decode", time=50.0, duration=1.0)
        FaultInjector(system, plan_of(event)).arm()
        metrics = system.run_to_completion(workload(n=5))
        assert len(metrics.completed) == 5
        assert not system.decode_instance.failed


class TestStraggler:
    def test_slowdown_applied_and_cleared(self):
        base = make_system()
        base.run_to_completion(workload())
        slow = make_system()
        event = FaultEvent(
            FaultKind.STRAGGLER, "decode", time=0.05, duration=2.0, magnitude=3.0
        )
        FaultInjector(slow, plan_of(event)).arm()
        slow.run_to_completion(workload())

        assert slow.decode_instance.compute_slowdown == 1.0  # restored
        assert len(slow.metrics.completed) == 30
        makespan = lambda m: max(r.finish_time for r in m.completed)
        assert makespan(slow.metrics) > makespan(base.metrics)


class TestLinkDegrade:
    def test_link_parameters_restored(self):
        system = make_system()
        injector = FaultInjector(
            system,
            plan_of(
                FaultEvent(
                    FaultKind.LINK_DEGRADE,
                    "pd",
                    time=0.1,
                    duration=0.4,
                    magnitude=0.25,
                    extra_latency_s=0.002,
                )
            ),
        )
        before = {l.name: (l.efficiency, l.latency_s) for l in injector.scope.links("pd")}
        injector.arm()
        system.run_to_completion(workload())
        after = {l.name: (l.efficiency, l.latency_s) for l in injector.scope.links("pd")}
        assert after == before
        assert not injector._saved_links


class TestLinkOutage:
    def test_outage_windows_installed_at_arm_time(self):
        system = make_system()
        event = FaultEvent(FaultKind.LINK_OUTAGE, "pd", time=0.2, duration=0.3)
        FaultInjector(system, plan_of(event)).arm()
        # Windows are pre-installed so retry schedules stay synchronous.
        assert system.transfers.fault_model is not None
        assert system.transfers.fault_model._windows
        metrics = system.run_to_completion(workload())
        assert len(metrics.completed) + len(metrics.shed) == 30
