"""Failure-injection tests: member failover in a serving fleet."""

from __future__ import annotations

import pytest

from repro.core.fleet import build_windserve_fleet
from repro.hardware.cluster import ClusterTopology
from repro.models.registry import get_model
from repro.serving.audit import audit_request
from repro.serving.metrics import SLO
from repro.serving.request import Request
from repro.serving.system import SystemConfig
from repro.workloads.datasets import SHAREGPT
from repro.workloads.trace import generate_trace


def make_fleet():
    cluster = ClusterTopology(num_nodes=1, gpus_per_node=8)
    config = SystemConfig(model=get_model("opt-13b"), slo=SLO(ttft=0.25, tpot=0.1))
    return build_windserve_fleet(config, cluster)


def trace(n=120, rate=16.0, seed=0):
    return generate_trace(SHAREGPT, rate=rate, num_requests=n, seed=seed,
                          model=get_model("opt-13b"))


class TestResetForRetry:
    def test_reset_clears_progress_keeps_arrival(self):
        r = Request(1, prompt_tokens=100, output_tokens=10, arrival_time=5.0)
        r.prefilled_tokens = 100
        r.output_generated = 4
        r.first_token_time = 6.0
        r.reset_for_retry()
        assert r.arrival_time == 5.0
        assert r.prefilled_tokens == 0
        assert r.output_generated == 0
        assert r.first_token_time is None
        assert r.retries == 1

    def test_retry_count_accumulates(self):
        r = Request(1, 10, 10, 0.0)
        r.reset_for_retry()
        r.reset_for_retry()
        assert r.retries == 2


class TestFailover:
    def test_all_requests_complete_despite_failure(self):
        fleet = make_fleet()
        t = trace(n=150, rate=20.0, seed=2)
        fleet.load_workload(t)
        fleet.sim.schedule(3.0, fleet.fail_member, 0)
        fleet.sim.run_until_idle()
        finished = [r for r in t if r.finished]
        assert len(finished) == len(t)
        for r in t:
            assert audit_request(r) == []

    def test_retried_requests_counted(self):
        fleet = make_fleet()
        t = trace(n=150, rate=20.0, seed=2)
        fleet.load_workload(t)
        fleet.sim.schedule(3.0, fleet.fail_member, 0)
        fleet.sim.run_until_idle()
        assert fleet.retried > 0
        assert any(r.retries for r in t)

    def test_failed_member_receives_no_new_traffic(self):
        fleet = make_fleet()
        t = trace(n=150, rate=20.0, seed=2)
        fleet.load_workload(t)
        fleet.sim.schedule(3.0, fleet.fail_member, 0)
        fleet.sim.run_until_idle()
        post_failure = [r for r in fleet._assignments[0] if not r.finished]
        assert post_failure == []

    def test_failure_raises_tail_latency(self):
        healthy = make_fleet()
        m1 = healthy.run_to_completion(trace(n=150, rate=20.0, seed=3))

        failed = make_fleet()
        t = trace(n=150, rate=20.0, seed=3)
        failed.load_workload(t)
        failed.sim.schedule(3.0, failed.fail_member, 0)
        failed.sim.run_until_idle()
        m2 = failed.merged_metrics()
        assert m2.ttft_stats().p99 > m1.ttft_stats().p99

    def test_double_failure_is_idempotent(self):
        fleet = make_fleet()
        fleet.load_workload(trace(n=60))
        fleet.sim.run(until=1.0)
        fleet.fail_member(0)
        assert fleet.fail_member(0) == 0

    def test_last_member_cannot_fail(self):
        fleet = make_fleet()
        fleet.fail_member(0)
        with pytest.raises(RuntimeError, match="every fleet member would"):
            fleet.fail_member(1)

    def test_unknown_member_rejected(self):
        with pytest.raises(ValueError):
            make_fleet().fail_member(9)
