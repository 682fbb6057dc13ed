"""Tests for per-request latency decomposition."""

from __future__ import annotations

import math

import pytest

from repro.harness.breakdown import (
    aggregate_breakdown,
    breakdown_rows,
    request_breakdown,
)
from repro.serving.request import Phase, Request


def finished_request(
    arrival=0.0, prefill_start=1.0, first_token=2.0, decode_start=2.5, finish=5.0
) -> Request:
    r = Request(1, prompt_tokens=100, output_tokens=10, arrival_time=arrival)
    r.prefill_start = prefill_start
    r.first_token_time = first_token
    r.decode_start = decode_start
    r.finish_time = finish
    r.output_generated = 10
    r.prefilled_tokens = 100
    r.phase = Phase.FINISHED
    return r


class TestRequestBreakdown:
    def test_components_sum_to_end_to_end(self):
        r = finished_request()
        parts = request_breakdown(r)
        assert sum(parts.values()) == pytest.approx(r.finish_time - r.arrival_time)

    def test_stage_values(self):
        parts = request_breakdown(finished_request())
        assert parts == {
            "prefill_queue": pytest.approx(1.0),
            "prefill_exec": pytest.approx(1.0),
            "handoff": pytest.approx(0.5),
            "decode": pytest.approx(2.5),
        }

    def test_unfinished_is_none(self):
        assert request_breakdown(Request(1, 10, 10, 0.0)) is None

    def test_single_token_request_has_zero_decode(self):
        r = finished_request(decode_start=None, finish=2.0)
        r.decode_start = None
        r.finish_time = 2.0
        parts = request_breakdown(r)
        assert parts["handoff"] == 0.0
        assert parts["decode"] == 0.0

    def test_dispatched_request_zero_handoff(self):
        r = finished_request(decode_start=2.0)
        assert request_breakdown(r)["handoff"] == 0.0


class TestAggregation:
    def test_aggregate_counts(self):
        stats = aggregate_breakdown([finished_request(), finished_request()])
        assert stats["decode"].count == 2

    def test_unfinished_skipped(self):
        stats = aggregate_breakdown([finished_request(), Request(2, 10, 10, 0.0)])
        assert stats["decode"].count == 1

    def test_empty_is_nan(self):
        stats = aggregate_breakdown([])
        assert math.isnan(stats["decode"].p50)

    def test_rows_and_render(self):
        rows = breakdown_rows([finished_request()], label="windserve")
        assert {r["component"] for r in rows} == {
            "prefill_queue",
            "prefill_exec",
            "handoff",
            "decode",
        }
        assert all(r["system"] == "windserve" for r in rows)


class TestEndToEndDecomposition:
    def test_windserve_shrinks_handoff_vs_distserve(self):
        """The async hand-off claim, seen through the decomposition."""
        from repro.harness.cell import Cell

        parts = {}
        for system in ("windserve", "distserve"):
            cell = Cell(
                system=system,
                model="llama2-13b",
                dataset="longbench",
                rate_per_gpu=0.8,
                num_requests=120,
                seed=6,
            )
            completed = cell.run().metrics.after_warmup(0.05).completed
            parts[system] = aggregate_breakdown(completed)
        assert parts["windserve"]["handoff"].p50 < parts["distserve"]["handoff"].p50
