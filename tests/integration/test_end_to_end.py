"""Cross-system integration tests on shared workloads."""

from __future__ import annotations

import pytest

from repro.harness.cell import Cell

SYSTEMS = ("windserve", "distserve", "vllm")


def summary(system: str, **overrides) -> dict:
    """The warm-up-trimmed summary of one run on the shared workload."""
    base = dict(system=system, num_requests=120, seed=42)
    return Cell(**{**base, **overrides}).run().summary()


@pytest.mark.parametrize("system", SYSTEMS)
class TestEverySystemEveryWorkload:
    def test_sharegpt_completes(self, system):
        result = summary(system)
        assert result["completed"] > 100
        assert result["ttft_p50"] > 0
        assert result["tpot_p99"] > 0

    def test_longbench_llama2_completes(self, system):
        result = summary(system, model="llama2-13b", dataset="longbench", rate_per_gpu=1.0)
        assert result["completed"] > 100

    def test_opt66b_pp2_completes(self, system):
        result = summary(
            system,
            model="opt-66b",
            rate_per_gpu=1.0,
            num_requests=60,
            prefill_parallel=(2, 2),
            decode_parallel=(2, 2),
        )
        assert result["completed"] > 50


@pytest.mark.parametrize("system", SYSTEMS)
class TestSanityOfMetrics:
    def test_tpot_positive_and_bounded(self, system):
        assert 0 < summary(system)["tpot_p50"] < 5.0

    def test_ttft_at_least_prefill_time(self, system):
        """No request can beat the physics of its own prefill."""
        from repro.hardware.gpu import A800_80GB
        from repro.models.parallelism import ParallelConfig
        from repro.models.registry import get_model
        from repro.perf.roofline import LatencyModel

        result = summary(system, rate_per_gpu=0.5, num_requests=40)
        lm = LatencyModel(get_model("opt-13b"), A800_80GB, ParallelConfig(tp=2))
        min_prefill = lm.prefill(4).duration  # smallest possible prompt
        assert result["ttft_p50"] >= min_prefill


class TestLoadMonotonicity:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_higher_rate_never_improves_p99(self, system):
        lo = summary(system, rate_per_gpu=1.0, num_requests=150)
        hi = summary(system, rate_per_gpu=6.0, num_requests=150)
        assert (
            hi["ttft_p99"] >= lo["ttft_p99"] * 0.8
        )  # allow noise, forbid large inversions
        assert hi["slo_attainment"] <= lo["slo_attainment"] + 0.05
