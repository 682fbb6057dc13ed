"""The GPU ledger: claim rule, bridge-pair option, overflow rejection, layout properties."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FleetShape
from repro.core.fleet import build_windserve_fleet
from repro.hardware.cluster import ClusterTopology
from repro.hardware.gpu import get_gpu
from repro.hardware.topology import NodeTopology
from repro.models.parallelism import ParallelConfig
from repro.models.registry import get_model
from repro.serving.placement import PLACEMENT_CANDIDATES, GpuLedger, PlacementError
from repro.serving.system import SystemConfig


def make_config(gpu: str = "a800-80gb") -> SystemConfig:
    return SystemConfig(model=get_model("opt-13b"), gpu=get_gpu(gpu))


class TestGpuLedger:
    def test_claims_lowest_free_ids_on_the_node(self):
        ledger = GpuLedger(ClusterTopology(num_nodes=2, gpus_per_node=4), taken=(5,))
        assert ledger.claim(1, 2, "a") == (4, 6)
        assert ledger.free_on(1) == [7]
        assert ledger.free_on(0) == [0, 1, 2, 3]

    def test_release_then_claim_reuses_ids(self):
        ledger = GpuLedger(ClusterTopology(num_nodes=1, gpus_per_node=4))
        first = ledger.claim(0, 2, "a")
        ledger.claim(0, 1, "b")
        ledger.release(first)
        assert ledger.claim(0, 3, "c") == (0, 1, 3)

    def test_overflow_raises(self):
        ledger = GpuLedger(ClusterTopology(num_nodes=1, gpus_per_node=4))
        ledger.claim(0, 3, "a")
        with pytest.raises(ValueError, match="node 0 cannot host b"):
            ledger.claim(0, 2, "b")
        assert ledger.free_on(0) == [3]  # a failed claim takes nothing

    def test_overflow_is_a_placement_error(self):
        ledger = GpuLedger(NodeTopology(num_gpus=2))
        with pytest.raises(PlacementError, match="node 0 cannot host a"):
            ledger.claim(0, 3, "a")

    def test_node_topology_is_a_one_node_cluster(self):
        ledger = GpuLedger(NodeTopology(num_gpus=4), taken=(1,))
        assert ledger.free_on(0) == [0, 2, 3]

    def test_nvlink_pair_option_takes_the_first_free_bridge_pair(self):
        ledger = GpuLedger(ClusterTopology(num_nodes=2, gpus_per_node=8), taken=(8,))
        assert ledger.claim(1, 2, "a", nvlink_pair=True) == (10, 11)
        assert ledger.claim(1, 2, "b") == (9, 12)  # the default: lowest free

    def test_nvlink_pair_option_falls_back_without_bridges(self):
        ledger = GpuLedger(NodeTopology(get_gpu("rtx-4090"), num_gpus=4), taken=(0,))
        assert ledger.claim(0, 2, "a", nvlink_pair=True) == (1, 2)


def test_span_prefill_overflow_rejected():
    """Two 4-GPU prefill blocks homed on a 4-GPU node must not spill onto
    the next node, where the decode blocks already sit."""
    with pytest.raises(ValueError, match="cannot host"):
        build_windserve_fleet(
            make_config(),
            ClusterTopology(num_nodes=2, gpus_per_node=4),
            pairs_per_node=2,
            shape=FleetShape.parse("a800:2:2x2+1x1"),
            span_nodes=True,
        )


def _spec(gpu: str, parallel) -> str:
    (ptp, ppp), (dtp, dpp) = parallel
    return f"{gpu}:1:{ptp}x{ppp}+{dtp}x{dpp}"


MEMBER = st.tuples(st.sampled_from(("a800", "h100")), st.sampled_from(PLACEMENT_CANDIDATES))


@settings(max_examples=80, deadline=None)
@given(
    members=st.lists(MEMBER, min_size=1, max_size=6),
    uniform=st.booleans(),
    pairs=st.integers(1, 3),
    gpus_per_node=st.sampled_from((4, 8)),
    idle_nodes=st.integers(0, 1),
    span=st.booleans(),
)
def test_shaped_layouts_are_exclusive_and_packed(
    members, uniform, pairs, gpus_per_node, idle_nodes, span
):
    if uniform:
        members = [members[0]] * len(members)
    shape = FleetShape.parse(",".join(_spec(gpu, par) for gpu, par in members))
    homed_nodes = -(-len(members) // pairs)
    # An idle (memberless) node receives no span-mode decode block, so an
    # overfull prefill block on the node before it has nothing to collide
    # with but the next member's GPUs.
    num_nodes = homed_nodes + idle_nodes
    cluster = ClusterTopology(
        num_nodes=num_nodes,
        gpus_per_node=gpus_per_node,
        node_gpus=[get_gpu(shape.members[k * pairs].gpu) for k in range(homed_nodes)]
        + [get_gpu("a800-80gb")] * idle_nodes,
    )
    try:
        fleet = build_windserve_fleet(
            make_config(), cluster, pairs_per_node=pairs, span_nodes=span, shape=shape
        )
    except ValueError:
        return
    seen: list[int] = []
    for i, member in enumerate(fleet.members):
        home = i // pairs
        for instance, node in (
            (member.prefill_instance, home),
            (member.decode_instance, (home + 1) % num_nodes if span else home),
        ):
            gpus = list(instance.gpus)
            assert gpus == list(range(gpus[0], gpus[0] + len(gpus)))
            assert {cluster.node_of(g) for g in gpus} == {node}
            seen += gpus
    assert len(seen) == len(set(seen))
    if uniform and not idle_nodes and len(members) % pairs == 0:
        p_par, d_par = members[0][1]
        homogeneous = build_windserve_fleet(
            make_config(shape.members[0].gpu),
            cluster,
            prefill_parallel=ParallelConfig(*p_par),
            decode_parallel=ParallelConfig(*d_par),
            pairs_per_node=pairs,
            span_nodes=span,
        )
        assert [
            (m.prefill_instance.gpus, m.decode_instance.gpus) for m in fleet.members
        ] == [(m.prefill_instance.gpus, m.decode_instance.gpus) for m in homogeneous.members]
