"""Tests for TP/PP partitioning maths."""

from __future__ import annotations

import pytest

from repro.models.parallelism import ParallelConfig
from repro.models.registry import OPT_13B


class TestConfig:
    def test_num_gpus(self):
        assert ParallelConfig(tp=2, pp=2).num_gpus == 4

    def test_invalid_degrees_rejected(self):
        with pytest.raises(ValueError):
            ParallelConfig(tp=0)
        with pytest.raises(ValueError):
            ParallelConfig(pp=0)

    def test_label(self):
        assert ParallelConfig(tp=2, pp=1).label() == "TP-2, PP-1"


class TestSharding:
    def test_tp1_is_identity(self):
        cfg = ParallelConfig(tp=1)
        assert cfg.shard_flops(100.0) == 100.0
        assert cfg.shard_io_bytes(100.0) == 100.0

    def test_tp2_roughly_halves_with_efficiency_loss(self):
        cfg = ParallelConfig(tp=2)
        sharded = cfg.shard_flops(100.0)
        assert 50.0 < sharded < 60.0

    def test_weight_bytes_per_gpu_divides_evenly(self):
        cfg = ParallelConfig(tp=2, pp=2)
        assert cfg.weight_bytes_per_gpu(OPT_13B) == pytest.approx(
            OPT_13B.weight_bytes / 4, rel=1e-6
        )


class TestCommunication:
    def test_tp1_no_allreduce(self):
        assert ParallelConfig(tp=1).tp_allreduce_time(OPT_13B, 1000) == 0.0

    def test_allreduce_grows_with_tokens(self):
        cfg = ParallelConfig(tp=2)
        assert cfg.tp_allreduce_time(OPT_13B, 2000) > cfg.tp_allreduce_time(OPT_13B, 1000)

    def test_allreduce_slower_on_pcie(self):
        nvlink = ParallelConfig(tp=2, tp_link_gbps=200.0)
        pcie = ParallelConfig(tp=2, tp_link_gbps=23.0)
        assert pcie.tp_allreduce_time(OPT_13B, 1024) > nvlink.tp_allreduce_time(OPT_13B, 1024)

    def test_pp1_no_activation_transfer(self):
        assert ParallelConfig(pp=1).pp_activation_time(OPT_13B, 1000) == 0.0

    def test_pp_hops_scale(self):
        two = ParallelConfig(pp=2).pp_activation_time(OPT_13B, 1024)
        four = ParallelConfig(pp=4).pp_activation_time(OPT_13B, 1024)
        assert four == pytest.approx(3 * two / 1, rel=0.01) or four > two

    def test_zero_tokens_no_comm(self):
        cfg = ParallelConfig(tp=2, pp=2)
        assert cfg.tp_allreduce_time(OPT_13B, 0) == 0.0
        assert cfg.pp_activation_time(OPT_13B, 0) == 0.0
