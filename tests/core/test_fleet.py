"""Tests for fleet serving and request routing (paper §7)."""

from __future__ import annotations

import pytest

from repro.baselines.distserve import DistServeSystem
from repro.core.fleet import ServingFleet, build_windserve_fleet
from repro.core.windserve import WindServeSystem
from repro.hardware.cluster import ClusterTopology
from repro.harness.invariants import check_run
from repro.models.parallelism import ParallelConfig
from repro.models.registry import get_model
from repro.serving.metrics import SLO
from repro.serving.system import SystemConfig
from repro.workloads.datasets import SHAREGPT
from repro.workloads.trace import generate_trace


def make_fleet(policy="predicted-ttft", num_nodes=1, pairs_per_node=2, factory=None):
    cluster = ClusterTopology(num_nodes=num_nodes, gpus_per_node=8)
    config = SystemConfig(model=get_model("opt-13b"), slo=SLO(ttft=0.25, tpot=0.1))
    return build_windserve_fleet(
        config,
        cluster,
        pairs_per_node=pairs_per_node,
        policy=policy,
        system_factory=factory,
    )


def trace(rate_total, n=200, seed=0):
    return generate_trace(
        SHAREGPT, rate=rate_total, num_requests=n, seed=seed, model=get_model("opt-13b")
    )


class TestConstruction:
    def test_members_on_disjoint_gpus(self):
        fleet = make_fleet()
        used = []
        for member in fleet.members:
            used += list(member.prefill_instance.gpus) + list(member.decode_instance.gpus)
        assert len(used) == len(set(used)) == 8

    def test_two_nodes_four_members(self):
        fleet = make_fleet(num_nodes=2)
        assert len(fleet.members) == 4
        assert fleet.num_gpus == 16

    def test_shared_simulator(self):
        fleet = make_fleet()
        assert len({id(m.sim) for m in fleet.members}) == 1

    def test_tp_pairs_keep_nvlink(self):
        fleet = make_fleet()
        for member in fleet.members:
            assert member.placement.prefill_parallel.tp_link_gbps > 100

    def test_overpacking_rejected(self):
        cluster = ClusterTopology(num_nodes=1, gpus_per_node=4)
        config = SystemConfig(model=get_model("opt-13b"))
        with pytest.raises(ValueError, match="cannot host"):
            build_windserve_fleet(config, cluster, pairs_per_node=2)

    def test_unknown_policy_rejected(self):
        member = make_fleet().members[0]
        with pytest.raises(ValueError, match="unknown policy"):
            ServingFleet([member], policy="random")

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one member"):
            ServingFleet([])

    def test_mixed_simulators_rejected(self):
        a = make_fleet().members[0]
        b = make_fleet().members[0]
        with pytest.raises(ValueError, match="share one simulator"):
            ServingFleet([a, b])

    def test_factory_swaps_member_type(self):
        fleet = make_fleet(factory=DistServeSystem)
        assert all(isinstance(m, DistServeSystem) for m in fleet.members)


class TestRouting:
    def test_round_robin_cycles(self):
        fleet = make_fleet(policy="round-robin")
        t = trace(rate_total=16.0, n=40)
        fleet.run_to_completion(t)
        assert fleet.routed == [20, 20]

    def test_least_loaded_balances(self):
        fleet = make_fleet(policy="least-loaded")
        fleet.run_to_completion(trace(rate_total=16.0, n=100))
        assert max(fleet.routed) - min(fleet.routed) <= 20

    def test_predicted_ttft_balances(self):
        fleet = make_fleet(policy="predicted-ttft")
        fleet.run_to_completion(trace(rate_total=16.0, n=100))
        assert min(fleet.routed) > 0


class TestEndToEnd:
    def test_fleet_completes_and_audits_clean(self):
        fleet = make_fleet()
        t = trace(rate_total=24.0, n=200, seed=3)
        metrics = fleet.run_to_completion(t)
        assert len(metrics.completed) == 200
        assert check_run(fleet, t) == []

    def test_merged_metrics_aggregate(self):
        fleet = make_fleet()
        metrics = fleet.run_to_completion(trace(rate_total=16.0, n=80))
        assert len(metrics.completed) == 80
        assert any(":prefill" in k for k in metrics.utilization)

    def test_scaling_out_holds_per_gpu_quality(self):
        """Per-GPU rate held constant, 1 node vs 2 nodes: SLO attainment
        should not collapse (linear scaling sanity)."""
        slo = SLO(ttft=0.25, tpot=0.1)
        small = make_fleet(num_nodes=1)
        m_small = small.run_to_completion(trace(rate_total=3.0 * 8, n=200, seed=4))
        big = make_fleet(num_nodes=2)
        m_big = big.run_to_completion(trace(rate_total=3.0 * 16, n=400, seed=4))
        assert m_big.slo_attainment(slo) >= 0.7 * m_small.slo_attainment(slo)
