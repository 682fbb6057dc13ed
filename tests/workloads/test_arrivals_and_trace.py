"""Tests for arrival processes and trace generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.registry import OPT_13B
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.datasets import LONGBENCH, SHAREGPT
from repro.workloads.trace import generate_trace


class TestPoissonArrivals:
    def test_mean_rate_converges(self):
        rng = np.random.default_rng(0)
        arrivals = poisson_arrivals(10.0, 20_000, rng)
        measured = len(arrivals) / arrivals[-1]
        assert measured == pytest.approx(10.0, rel=0.05)

    def test_monotone_nondecreasing(self):
        arrivals = poisson_arrivals(5.0, 1000, np.random.default_rng(1))
        assert np.all(np.diff(arrivals) >= 0)

    def test_start_offset(self):
        arrivals = poisson_arrivals(5.0, 10, np.random.default_rng(1), start=100.0)
        assert arrivals[0] >= 100.0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 10, np.random.default_rng(0))

    def test_zero_requests(self):
        assert len(poisson_arrivals(1.0, 0, np.random.default_rng(0))) == 0


class TestGenerateTrace:
    def test_request_count_and_ordering(self):
        trace = generate_trace(SHAREGPT, rate=8.0, num_requests=500, seed=0)
        assert len(trace) == 500
        times = [r.arrival_time for r in trace]
        assert times == sorted(times)

    def test_deterministic_by_seed(self):
        a = generate_trace(SHAREGPT, 8.0, 100, seed=5)
        b = generate_trace(SHAREGPT, 8.0, 100, seed=5)
        assert [(r.prompt_tokens, r.output_tokens) for r in a] == [
            (r.prompt_tokens, r.output_tokens) for r in b
        ]

    def test_seeds_differ(self):
        a = generate_trace(SHAREGPT, 8.0, 100, seed=1)
        b = generate_trace(SHAREGPT, 8.0, 100, seed=2)
        assert [r.prompt_tokens for r in a] != [r.prompt_tokens for r in b]

    def test_model_context_clamping(self):
        """OPT's 2K window truncates LongBench prompts (paper §5.1 rationale
        for using LLaMA2 on the summarisation workload)."""
        trace = generate_trace(LONGBENCH, 4.0, 500, seed=0, model=OPT_13B)
        for r in trace:
            assert r.prompt_tokens + r.output_tokens <= OPT_13B.max_context
            assert r.output_tokens >= 1

    def test_request_ids_sequential_from_start(self):
        trace = generate_trace(SHAREGPT, 8.0, 10, seed=0, start_id=100)
        assert [r.request_id for r in trace] == list(range(100, 110))

    def test_stats_reflect_dataset(self):
        trace = generate_trace(SHAREGPT, 8.0, 5000, seed=0)
        assert np.median([r.prompt_tokens for r in trace]) == pytest.approx(695, rel=0.10)
        assert len(trace) == 5000


class TestTraceSerialisation:
    def test_duration(self):
        trace = generate_trace(SHAREGPT, 8.0, 100, seed=0)
        assert trace.duration == trace.requests[-1].arrival_time - trace.requests[0].arrival_time
