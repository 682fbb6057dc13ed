"""Tests for request lifecycle and metric definitions."""

from __future__ import annotations

import dataclasses
import tracemalloc

import pytest

from repro.serving.request import Phase, Request


def make_request(**overrides) -> Request:
    base = dict(request_id=1, prompt_tokens=100, output_tokens=10, arrival_time=5.0)
    base.update(overrides)
    return Request(**base)


class TestValidation:
    def test_prompt_must_be_positive(self):
        with pytest.raises(ValueError):
            make_request(prompt_tokens=0)

    def test_output_must_be_positive(self):
        with pytest.raises(ValueError):
            make_request(output_tokens=0)


class TestDerivedState:
    def test_context_includes_generated(self):
        r = make_request()
        r.output_generated = 3
        assert r.context_tokens == 103

    def test_prefill_progress(self):
        r = make_request()
        assert r.remaining_prefill_tokens == 100
        r.prefilled_tokens = 60
        assert r.remaining_prefill_tokens == 40
        assert not r.prefill_done
        r.prefilled_tokens = 100
        assert r.prefill_done

    def test_decode_iterations_remaining(self):
        r = make_request(output_tokens=10)
        r.output_generated = 1  # first token from prefill
        assert r.decode_iterations_remaining == 9

    def test_initial_phase(self):
        assert make_request().phase == Phase.WAITING_PREFILL


class TestMetrics:
    def test_ttft_includes_queuing(self):
        r = make_request(arrival_time=5.0)
        r.first_token_time = 7.5
        assert r.ttft == pytest.approx(2.5)

    def test_ttft_none_before_first_token(self):
        assert make_request().ttft is None

    def test_tpot_definition(self):
        """TPOT averages over output tokens after the first (paper §1)."""
        r = make_request(output_tokens=11)
        r.first_token_time = 10.0
        r.finish_time = 20.0
        assert r.tpot == pytest.approx(1.0)  # 10 s / 10 subsequent tokens

    def test_tpot_single_token_output_is_zero(self):
        r = make_request(output_tokens=1)
        r.first_token_time = 10.0
        r.finish_time = 10.0
        assert r.tpot == 0.0

    def test_tpot_none_when_unfinished(self):
        r = make_request()
        r.first_token_time = 10.0
        assert r.tpot is None

    def test_decode_queue_delay(self):
        r = make_request()
        r.decode_queue_enter = 8.0
        r.decode_start = 9.5
        assert r.decode_queue_delay == pytest.approx(1.5)


#: Every lifecycle marker the serving paths write, with a non-default value.
LIFECYCLE = {
    "chunk_in_flight": True,
    "migrating": True,
    "handoff": (3.5, 1, 2),
    "shed_time": 4.0,
    "prefix_cached": 32,
    "fs_key": 7.25,
    "fs_start": 6.0,
}


class TestLifecycleFields:
    def test_reset_for_retry_restores_every_marker(self):
        defaults = {f.name: f.default for f in dataclasses.fields(Request)}
        r = make_request()
        for retry in (1, 2, 3):
            for name, value in LIFECYCLE.items():
                setattr(r, name, value)
            r.reset_for_retry()
            for name in LIFECYCLE:
                assert getattr(r, name) == defaults[name], name
            assert r.retries == retry

    def test_requests_take_no_ad_hoc_attributes(self):
        r = make_request()
        assert not hasattr(r, "__dict__")
        with pytest.raises(AttributeError):
            r.scratch = {}

    def test_marked_requests_stay_compact(self):
        """10,000 requests with a chunk marker and a fair-share key hold
        their slots and nothing else: no per-request dict."""
        n = 10_000
        ids = list(range(n))
        arrivals = [i * 0.01 for i in ids]
        keys = [i * 0.5 for i in ids]
        requests = [None] * n
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in ids:
                r = requests[i] = Request(i, 100, 10, arrivals[i])
                r.chunk_in_flight = True
                r.fs_key = keys[i]
            per_request = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert per_request <= 280, f"{per_request:.0f} B per request"
