"""Tests for the run-fingerprint layer."""

from __future__ import annotations

import enum

import numpy as np

from repro.serving.request import Phase, Request
from repro.sim.fingerprint import (
    RunFingerprint,
    canonical_json,
    fingerprint_records,
    fingerprint_requests,
    fingerprint_rng,
    fingerprint_run,
    request_row,
)
from repro.sim.trace import TraceLog, TraceRecord


def _finished_request(rid: int = 0, ttft: float = 0.5, tpot: float = 0.05) -> Request:
    request = Request(request_id=rid, prompt_tokens=100, output_tokens=10, arrival_time=0.0)
    request.prefilled_tokens = 100
    request.output_generated = 10
    request.prefill_start = 0.1
    request.first_token_time = ttft
    request.finish_time = ttft + tpot * 9
    request.phase = Phase.FINISHED
    return request


class TestCanonicalJson:
    def test_key_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_floats_round_trip_exactly(self):
        value = 0.1 + 0.2  # 0.30000000000000004
        assert repr(value) in canonical_json({"x": value})

    def test_numpy_scalars_normalised(self):
        assert canonical_json({"x": np.float64(1.5)}) == canonical_json({"x": 1.5})
        assert canonical_json({"n": np.int64(3)}) == canonical_json({"n": 3})

    def test_enums_reduce_to_values(self):
        class Colour(enum.Enum):
            RED = "red"

        assert canonical_json(Colour.RED) == canonical_json("red")

    def test_nested_structures(self):
        a = canonical_json({"outer": [{"z": 1, "a": [1, 2.5]}]})
        b = canonical_json({"outer": [{"a": [1, 2.5], "z": 1}]})
        assert a == b


class TestRecordFingerprints:
    def records(self):
        return [
            TraceRecord(0.5, "prefill-0", "batch-start", {"tokens": 128}),
            TraceRecord(1.0, "decode-0", "finish", {"request_id": 3}),
        ]

    def test_deterministic(self):
        assert fingerprint_records(self.records()) == fingerprint_records(self.records())

    def test_payload_sensitive(self):
        changed = self.records()
        changed[0] = TraceRecord(0.5, "prefill-0", "batch-start", {"tokens": 129})
        assert fingerprint_records(self.records()) != fingerprint_records(changed)

    def test_order_sensitive(self):
        assert fingerprint_records(self.records()) != fingerprint_records(
            list(reversed(self.records()))
        )

    def test_tracelog_fingerprint_matches_free_function(self):
        log = TraceLog()
        for r in self.records():
            log.emit(r.time, r.component, r.tag, **r.payload)
        assert log.fingerprint() == fingerprint_records(self.records())


class TestRequestFingerprints:
    def test_deterministic_and_order_insensitive(self):
        a = [_finished_request(0), _finished_request(1, ttft=0.7)]
        b = [_finished_request(1, ttft=0.7), _finished_request(0)]
        assert fingerprint_requests(a) == fingerprint_requests(b)

    def test_sensitive_to_timestamps(self):
        assert fingerprint_requests([_finished_request(0, ttft=0.5)]) != fingerprint_requests(
            [_finished_request(0, ttft=0.6)]
        )

    def test_row_has_lifecycle_counters(self):
        row = request_row(_finished_request(7))
        assert row["id"] == 7
        assert {"swaps", "migrations", "recomputes", "dispatched"} <= set(row)


class TestRunFingerprint:
    def test_explain_mismatch_names_components(self):
        a = fingerprint_run([], [], rng_registry=["root/arrivals"], events_processed=5)
        b = fingerprint_run([], [], rng_registry=["root/arrivals", "root/extra"],
                            events_processed=6)
        explanation = " | ".join(a.explain_mismatch(b))
        assert "RNG stream registry" in explanation
        assert "events processed" in explanation
        assert "trace stream" not in explanation

    def test_combined_value_stable(self):
        a = fingerprint_run([], [], rng_registry=["root/x"])
        b = fingerprint_run([], [], rng_registry=["root/x"])
        assert a.value == b.value
        assert a == b

    def test_rng_registry_order_matters(self):
        assert fingerprint_rng(["a", "b"]) != fingerprint_rng(["b", "a"])
