"""Tests for the single-system builders and a cell's run summary."""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.baselines.distserve import DistServeSystem
from repro.baselines.vllm import VLLMSystem
from repro.core.windserve import WindServeSystem
from repro.harness.cell import Cell
from repro.harness.runner import build_system


def spec(**overrides) -> Cell:
    return Cell(**{"num_requests": 60, **overrides})


class TestSpec:
    def test_gpus_used(self):
        s = spec(prefill_parallel=(2, 1), decode_parallel=(2, 2))
        assert s.gpus_used == 6

    def test_with_rate_and_system_return_new_specs(self):
        s = spec()
        assert replace(s, rate_per_gpu=9.0).rate_per_gpu == 9.0
        assert replace(s, system="vllm").system == "vllm"
        assert s.rate_per_gpu == 3.0  # original untouched
        with pytest.raises(FrozenInstanceError):
            s.rate_per_gpu = 9.0


class TestBuildSystem:
    def test_builds_each_system_type(self):
        assert isinstance(build_system(spec(system="windserve")), WindServeSystem)
        assert isinstance(build_system(spec(system="distserve")), DistServeSystem)
        assert isinstance(build_system(spec(system="vllm")), VLLMSystem)

    def test_ablation_variants_configure_windserve(self):
        no_split = build_system(spec(system="windserve-no-split"))
        assert no_split.ws_config.colocation_mode == "hybrid"
        no_resche = build_system(spec(system="windserve-no-resche"))
        assert not no_resche.ws_config.rescheduling_enabled
        static = build_system(spec(system="windserve-static"))
        assert not static.ws_config.dispatch_enabled

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            build_system(spec(system="tgi"))

    def test_vllm_replica_count_matches_gpu_budget(self):
        system = build_system(spec(system="vllm", decode_parallel=(2, 1)))
        assert isinstance(system, VLLMSystem)
        assert system.num_gpus == 4  # 2 replicas x TP-2


class TestRunExperiment:
    def test_summary_has_headline_metrics(self):
        summary = spec().run().summary()
        for key in ("ttft_p50", "ttft_p99", "tpot_p90", "tpot_p99", "slo_attainment"):
            assert key in summary
            assert not math.isnan(summary[key])

    def test_all_requests_complete(self):
        run = spec().run()
        assert len(run.metrics.completed) == 60
        assert run.summary()["completed"] == 57  # 5% warm-up trimmed

    def test_deterministic(self):
        a = spec().run()
        b = spec().run()
        assert a.summary() == b.summary()

    def test_seed_changes_results(self):
        a = spec(seed=1).run()
        b = spec(seed=2).run()
        assert a.summary()["ttft_p50"] != b.summary()["ttft_p50"]

    def test_utilization_reported_per_instance(self):
        metrics = spec().run().metrics
        assert "prefill" in metrics.utilization
        assert "decode" in metrics.utilization
        for sample in metrics.utilization.values():
            assert 0.0 <= sample.compute_utilization(metrics.horizon) <= 1.0
            assert 0.0 <= sample.io_utilization(metrics.horizon) <= 1.0

    def test_row_is_flat(self):
        summary = spec().run().summary()
        assert all(isinstance(v, (int, float)) for v in summary.values())
        assert isinstance(summary["ttft_p50"], float)


class TestSweep:
    def test_sweep_runs_every_rate(self):
        cell = spec(num_requests=40)
        runs = [replace(cell, rate_per_gpu=rate).run() for rate in (1.0, 3.0)]
        assert [r.cell.rate_per_gpu for r in runs] == [1.0, 3.0]

    def test_latency_degrades_with_rate(self):
        cell = spec(system="distserve", num_requests=150)
        lo, hi = (replace(cell, rate_per_gpu=rate).run().summary() for rate in (1.0, 6.0))
        assert hi["ttft_p50"] > lo["ttft_p50"]
