"""Heterogeneous fleet shapes: spec parsing, construction, billing."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.autoscaler import (
    AutoscalerConfig,
    AutoscalingFleet,
    FleetShapeMismatch,
)
from repro.core.config import FleetShape, MemberShape
from repro.core.fleet import build_windserve_fleet, cluster_for_shape
from repro.hardware.cluster import ClusterTopology
from repro.hardware.gpu import A800_80GB, H100_80GB
from repro.models.registry import get_model
from repro.serving.metrics import SLO
from repro.serving.system import SystemConfig
from repro.workloads.datasets import SHAREGPT
from repro.workloads.trace import generate_trace


def make_config() -> SystemConfig:
    return SystemConfig(model=get_model("opt-13b"), slo=SLO(ttft=0.25, tpot=0.1))


def shaped_fleet(spec: str, policy="predicted-ttft", pairs_per_node=1, factory=None):
    return build_windserve_fleet(
        make_config(),
        pairs_per_node=pairs_per_node,
        policy=policy,
        shape=FleetShape.parse(spec),
        fleet_factory=factory,
    )


def trace(rate_total, n=120, seed=0):
    return generate_trace(
        SHAREGPT, rate=rate_total, num_requests=n, seed=seed, model=get_model("opt-13b")
    )


class TestShapeSpec:
    def test_counts_and_aliases(self):
        shape = FleetShape.parse("h100:2,a800:4")
        assert len(shape) == 6
        assert shape.members[0].gpu == "h100-80gb"
        assert shape.members[2].gpu == "a800-80gb"

    def test_explicit_parallelism(self):
        shape = FleetShape.parse("h100:2:2x1+2x2")
        member = shape.members[0]
        assert member.prefill_parallel == (2, 1)
        assert member.decode_parallel == (2, 2)
        assert member.num_gpus == 6

    def test_round_trip_canonical(self):
        for spec in ("h100:2,a800:4", "a800,h100,a800", "a800:1:1x1+1x1,h100"):
            shape = FleetShape.parse(spec)
            assert FleetShape.parse(shape.spec_string()) == shape

    def test_default_shape_detected(self):
        assert FleetShape.parse("a800:4").is_default
        assert not FleetShape.parse("h100").is_default
        assert not FleetShape.parse("a800:1:1x1+1x1").is_default

    def test_unknown_gpu_rejected(self):
        with pytest.raises(ValueError, match="unknown GPU"):
            FleetShape.parse("tpu-v5:2")

    def test_bad_parallelism_rejected(self):
        with pytest.raises(ValueError, match="parallelism"):
            FleetShape.parse("a800:1:2x1")

    def test_empty_term_rejected(self):
        with pytest.raises(ValueError):
            FleetShape.parse("a800,,h100")

    def test_num_gpus(self):
        assert FleetShape.parse("h100:2,a800").num_gpus == 12
        assert MemberShape("a800-80gb", (1, 1), (1, 1)).num_gpus == 2


class TestClusterForShape:
    def test_one_device_type_per_node(self):
        cluster = cluster_for_shape(FleetShape.parse("a800,h100"), pairs_per_node=1)
        assert cluster.num_nodes == 2
        assert cluster.gpu_spec_of(0) is A800_80GB
        assert cluster.gpu_spec_of(8) is H100_80GB

    def test_mixed_types_on_one_node_rejected(self):
        with pytest.raises(ValueError, match="GPU type"):
            cluster_for_shape(FleetShape.parse("a800,h100"), pairs_per_node=2)

    def test_member_too_wide_for_node_rejected(self):
        with pytest.raises(ValueError, match="GPUs"):
            build_windserve_fleet(make_config(), shape=FleetShape.parse("a800:1:4x2+4x2"))

    def test_span_layout_that_fits_is_built(self):
        """Node 0 homes 10 GPUs of prefill and decode, but in span mode
        the decode blocks move to the next node: 7 GPUs on each node."""
        shape = FleetShape.parse("a800:1:2x2+2x2,a800:3:1x1+1x1")

        def layout(cluster=None):
            fleet = build_windserve_fleet(
                make_config(), cluster, pairs_per_node=2, span_nodes=True, shape=shape
            )
            return [(m.prefill_instance.gpus, m.decode_instance.gpus) for m in fleet.members]

        expected = [((0, 1, 2, 3), (10, 11, 12, 13)), ((4,), (14,)), ((8,), (5,)), ((9,), (6,))]
        assert layout(ClusterTopology(num_nodes=2, gpus_per_node=8)) == expected
        assert layout() == expected


class TestShapedConstruction:
    def test_per_member_gpu_types(self):
        fleet = shaped_fleet("a800,h100,a800")
        gpus = [m.prefill_instance.gpu for m in fleet.members]
        assert gpus[0] is A800_80GB
        assert gpus[1] is H100_80GB
        assert gpus[2] is A800_80GB
        assert fleet.members[1].decode_instance.gpu is H100_80GB

    def test_members_on_disjoint_gpus(self):
        fleet = shaped_fleet("a800:2,h100:2", pairs_per_node=2)
        used = []
        for member in fleet.members:
            used += list(member.prefill_instance.gpus)
            used += list(member.decode_instance.gpus)
        assert len(used) == len(set(used))

    def test_num_gpus_sums_member_shapes(self):
        fleet = shaped_fleet("a800:1:1x1+1x1,h100")
        assert fleet.num_gpus == 2 + 4

    def test_gpu_counts_by_type(self):
        fleet = shaped_fleet("a800,h100,a800")
        counts = sum(map(fleet.member_gpu_counts, range(len(fleet.members))), Counter())
        assert counts == {"a800-80gb": 8, "h100-80gb": 4}

    def test_policy_identity_stamps_non_default_shape(self):
        fleet = shaped_fleet("a800,h100,a800")
        identity = dict(fleet.policy_identity())
        assert identity["fleet_shape"] == "a800-80gb,h100-80gb,a800-80gb"

    def test_default_shape_stamps_nothing(self):
        # A shape matching the implicit pre-shape default serialises nothing:
        # homogeneous goldens must keep their digests.
        fleet = shaped_fleet("a800:2", pairs_per_node=2)
        assert "fleet_shape" not in dict(fleet.policy_identity())

    def test_shapeless_build_without_cluster_rejected(self):
        with pytest.raises(ValueError):
            build_windserve_fleet(make_config(), pairs_per_node=2)

    def test_mixed_fleet_serves_to_completion(self):
        fleet = shaped_fleet("a800:1:1x1+1x1,h100")
        metrics = fleet.run_to_completion(trace(3.0 * fleet.num_gpus, n=60))
        assert len(metrics.completed) == 60


class TestTypedBilling:
    def make_autoscaling(self, spec: str, **autoscaler_kwargs):
        def factory(members, policy):
            return AutoscalingFleet(
                members,
                policy=policy,
                autoscaler=AutoscalerConfig(
                    startup_delay=0.5, check_interval=0.5, **autoscaler_kwargs
                ),
            )

        return shaped_fleet(spec, factory=factory)

    def test_gpu_hours_split_by_type(self):
        fleet = self.make_autoscaling("a800,h100")
        fleet.run_to_completion(trace(2.0 * fleet.num_gpus, n=40))
        total = fleet.gpu_hours_used()  # brings the per-type bill up to date too
        by_type = fleet.gpu_type_time
        assert set(by_type) == {"a800-80gb", "h100-80gb"}
        assert min(by_type.values()) > 0
        # The per-type bill decomposes the untyped one exactly.
        assert sum(by_type.values()) == pytest.approx(total)

    def test_typed_bill_lands_in_merged_counters(self):
        fleet = self.make_autoscaling("a800,h100")
        fleet.run_to_completion(trace(2.0 * fleet.num_gpus, n=40))
        counters = fleet.merged_metrics().counters
        assert counters["gpu_type_seconds[a800-80gb]"] > 0
        assert counters["gpu_type_seconds[h100-80gb]"] > 0


class TestStandbyShapeMismatch:
    def make_fleet(self, spec: str):
        def factory(members, policy):
            return AutoscalingFleet(
                members,
                policy=policy,
                autoscaler=AutoscalerConfig(startup_delay=0.5, check_interval=0.5),
                initially_active=len(members) - 1,
            )

        return shaped_fleet(spec, factory=factory)

    def test_mismatched_standby_is_an_error(self):
        # Members 0-1 active (A800, H100); standby member 2 is an A800 with
        # a different parallelism — no shape match for the dead H100.
        fleet = self.make_fleet("a800,h100,a800:1:1x1+1x1")
        fleet.load_workload(trace(2.0 * fleet.num_gpus, n=20))
        fleet.sim.run(until=0.1)
        fleet.crash_member(1)
        with pytest.raises(FleetShapeMismatch, match="no standby matches"):
            fleet.notice_member_failure(1)

    def test_matching_standby_promotes(self):
        fleet = self.make_fleet("a800,h100,a800")
        fleet.load_workload(trace(2.0 * fleet.num_gpus, n=20))
        fleet.sim.run(until=0.1)
        fleet.crash_member(0)
        fleet.notice_member_failure(0)  # standby 2 matches member 0's shape
        assert 2 in fleet._starting

    def test_replanner_waives_the_mismatch(self):
        from repro.core.replan import FleetReplanner

        fleet = self.make_fleet("a800,h100,a800:1:1x1+1x1")
        fleet.replanner = FleetReplanner()
        fleet.load_workload(trace(2.0 * fleet.num_gpus, n=20))
        fleet.sim.run(until=0.1)
        fleet.crash_member(1)
        fleet.notice_member_failure(1)
        assert 2 in fleet._starting


class TestEligibleCache:
    def test_cache_survives_routing_and_invalidates_on_failure(self):
        fleet = shaped_fleet("a800:3")
        fleet.load_workload(trace(2.0 * fleet.num_gpus, n=10))
        assert fleet.eligible_members() == [0, 1, 2]
        assert fleet._eligible_cache == [0, 1, 2]
        fleet.sim.run(until=0.05)
        fleet.fail_member(1)
        assert fleet.eligible_members() == [0, 2]
        fleet.sim.run_until_idle()
        fleet.restart_member(1)
        assert fleet.eligible_members() == [0, 1, 2]
