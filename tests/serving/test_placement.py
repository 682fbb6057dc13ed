"""Tests for placement planning."""

from __future__ import annotations

import pytest

from repro.hardware.cluster import ClusterTopology
from repro.hardware.topology import NodeTopology
from repro.models.parallelism import ParallelConfig
from repro.serving.placement import (
    PlacementError,
    bind_tp_link,
    plan_colocated_placement,
    plan_pd_placement,
)


class TestPDPlacement:
    def test_tp2_tp2_uses_nvlink_pairs(self):
        topo = NodeTopology(num_gpus=4)
        p = plan_pd_placement(topo, ParallelConfig(tp=2), ParallelConfig(tp=2))
        assert set(p.prefill_gpus) == {0, 1}
        assert set(p.decode_gpus) == {2, 3}

    def test_tp2_groups_get_nvlink_bandwidth(self):
        topo = NodeTopology(num_gpus=8)
        p = plan_pd_placement(topo, ParallelConfig(tp=2), ParallelConfig(tp=2))
        assert p.prefill_parallel.tp_link_gbps > 100  # NVLink, not PCIe

    def test_tp1_tp2_leaves_gpu1_for_the_decode_pair(self):
        """Decode TP-2 skips GPU 1 to take the bridge pair (2, 3)."""
        p = plan_pd_placement(NodeTopology(num_gpus=8), ParallelConfig(tp=1), ParallelConfig(tp=2))
        assert (p.prefill_gpus, p.decode_gpus) == ((0,), (2, 3))
        assert p.decode_parallel.tp_link_gbps > 100  # NVLink, not PCIe

    def test_tp2_tp1(self):
        topo = NodeTopology(num_gpus=4)
        p = plan_pd_placement(topo, ParallelConfig(tp=2), ParallelConfig(tp=1))
        assert len(p.prefill_gpus) == 2
        assert len(p.decode_gpus) == 1
        assert not set(p.prefill_gpus) & set(p.decode_gpus)

    def test_pp2_stages_alternate_for_numa_adjacency(self):
        """The [TP-2,PP-2 | TP-2,PP-2] OPT-66B placement must keep prefill
        and decode stages NUMA-adjacent so transfers avoid the root complex."""
        topo = NodeTopology(num_gpus=8)
        p = plan_pd_placement(
            topo, ParallelConfig(tp=2, pp=2), ParallelConfig(tp=2, pp=2)
        )
        assert len(p.prefill_gpus) == 4 and len(p.decode_gpus) == 4
        # Each NUMA node hosts GPUs of both instances.
        prefill_numas = {topo.numa_of(g) for g in p.prefill_gpus}
        decode_numas = {topo.numa_of(g) for g in p.decode_gpus}
        assert prefill_numas == {0, 1}
        assert decode_numas == {0, 1}

    def test_no_gpu_double_assignment(self):
        topo = NodeTopology(num_gpus=8)
        p = plan_pd_placement(topo, ParallelConfig(tp=2, pp=2), ParallelConfig(tp=2, pp=2))
        all_gpus = list(p.prefill_gpus) + list(p.decode_gpus)
        assert len(all_gpus) == len(set(all_gpus)) == 8

    def test_oversubscription_rejected(self):
        topo = NodeTopology(num_gpus=4)
        with pytest.raises(PlacementError):
            plan_pd_placement(topo, ParallelConfig(tp=2, pp=2), ParallelConfig(tp=2, pp=2))

    def test_label(self):
        topo = NodeTopology(num_gpus=4)
        p = plan_pd_placement(topo, ParallelConfig(tp=2), ParallelConfig(tp=1))
        assert "TP-2" in p.label() and "TP-1" in p.label()


class TestColocatedPlacement:
    def test_two_tp2_replicas(self):
        topo = NodeTopology(num_gpus=4)
        replicas = plan_colocated_placement(topo, ParallelConfig(tp=2), 2)
        assert len(replicas) == 2
        gpus = [g for r, _ in replicas for g in r]
        assert sorted(gpus) == [0, 1, 2, 3]

    def test_replica_parallel_gets_link_bandwidth(self):
        topo = NodeTopology(num_gpus=4)
        replicas = plan_colocated_placement(topo, ParallelConfig(tp=2), 2)
        for _, cfg in replicas:
            assert cfg.tp_link_gbps > 100

    def test_too_many_replicas_rejected(self):
        topo = NodeTopology(num_gpus=4)
        with pytest.raises(PlacementError):
            plan_colocated_placement(topo, ParallelConfig(tp=2), 3)


class TestBindTpLink:
    def test_pp_stages_do_not_price_the_link_between_them(self):
        """GPUs 0-1 and 2-3 are NVLink pairs joined by PCIe: a TP-2xPP-2
        instance on them all-reduces over NVLink only."""
        cluster = ClusterTopology(num_nodes=1, gpus_per_node=8)
        cfg = bind_tp_link(cluster, ParallelConfig(tp=2, pp=2), (0, 1, 2, 3))
        nvlink = bind_tp_link(cluster, ParallelConfig(tp=2), (0, 1)).tp_link_gbps
        assert cfg.tp_link_gbps == nvlink > 100
        assert (cfg.tp, cfg.pp) == (2, 2)

    def test_one_pcie_stage_prices_the_whole_instance(self):
        cluster = ClusterTopology(num_nodes=1, gpus_per_node=8)
        cfg = bind_tp_link(cluster, ParallelConfig(tp=2, pp=2), (0, 1, 2, 4))
        assert cfg.tp_link_gbps < 100

    def test_tp1_keeps_its_config(self):
        cfg = ParallelConfig(tp=1, pp=2)
        assert bind_tp_link(ClusterTopology(num_nodes=1), cfg, (0, 1)) is cfg
