"""Tests for the structured trace log."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.fingerprint import (
    UnencodableValue,
    canonical_json,
    digest_lines,
    fingerprint_records,
    raw_row,
    raw_row_json,
)
from repro.sim.trace import TraceLog, TraceRecord
from tests.conftest import search_depth
from tests.sim.test_raw_row_fingerprint import PAYLOADS, SCALARS


class TestTraceLog:
    def test_emit_and_read_back(self):
        log = TraceLog()
        log.emit(1.0, "prefill", "batch-start", tokens=512)
        assert len(log) == 1
        rec = log.records[0]
        assert rec == TraceRecord(1.0, "prefill", "batch-start", {"tokens": 512})

    def test_disabled_log_drops_records(self):
        log = TraceLog(enabled=False)
        log.emit(1.0, "x", "y")
        assert len(log) == 0

    def test_tag_set(self):
        log = TraceLog(tags=frozenset({"keep"}))
        log.emit(1.0, "c", "keep")
        log.emit(2.0, "c", "drop")
        assert [r.tag for r in log] == ["keep"]

    def test_filter_by_tag_and_component(self):
        log = TraceLog()
        log.emit(1.0, "a", "t1")
        log.emit(2.0, "b", "t1")
        log.emit(3.0, "a", "t2")
        assert len(log.filter(tag="t1")) == 2
        assert len(log.filter(component="a")) == 2
        assert len(log.filter(tag="t1", component="a")) == 1

    def test_count(self):
        log = TraceLog()
        for _ in range(3):
            log.emit(0.0, "c", "x")
        log.emit(0.0, "c", "y")
        assert log.count("x") == 3
        assert log.count("y") == 1

    def test_clear(self):
        log = TraceLog()
        log.emit(0.0, "c", "x", n=1)
        log.clear()
        assert len(log) == 0
        log.emit(1.0, "c", "x", m=2)
        assert log.records == [TraceRecord(1.0, "c", "x", {"m": 2})]

    def test_iteration_order_is_emission_order(self):
        log = TraceLog()
        log.emit(5.0, "c", "late")
        log.emit(1.0, "c", "early")
        assert [r.tag for r in log] == ["late", "early"]

    def test_records_is_a_fresh_list(self):
        log = TraceLog()
        log.emit(1.0, "c", "first", n=1)
        log.emit(2.0, "c", "second", n=2)
        log.records.reverse()
        log.records[0].payload["n"] = 99
        assert [r.tag for r in log] == ["first", "second"]
        assert [r.payload for r in log.filter()] == [{"n": 1}, {"n": 2}]

    @pytest.mark.parametrize(
        "time", [1, True, None, "1.0", np.float64(1.0)], ids=["int", "bool", "none", "str", "numpy"]
    )
    def test_non_float_time_is_refused(self, time):
        # Stored in a float column, an int 1 would read back (and hash) as 1.0.
        log = TraceLog()
        with pytest.raises(TypeError, match="float"):
            log.emit(time, "c", "x")
        assert len(log) == 0

    def test_unencodable_payload_is_named_by_key(self):
        log = TraceLog()
        log.emit(0.0, "c", "x", fine=1, bad={2})
        with pytest.raises(UnencodableValue, match=r"set at \['bad'\]"):
            log.fingerprint()

    def test_batch_start_rows_stay_compact(self):
        """A batch-start row keeps its time, a head pointer and four values."""
        log = TraceLog()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(20_000):
                log.emit(
                    i * 0.01,
                    "prefill-0",
                    "batch-start",
                    kind="prefill",
                    prefill_tokens=300 + i % 4096,
                    decode_batch=i % 64,
                    duration=0.001 * (i % 97),
                )
            per_row = (tracemalloc.get_traced_memory()[0] - before) / len(log)
        finally:
            tracemalloc.stop()
        assert per_row <= 120, f"{per_row:.0f} B per row"


# -- round trip against a plain-list model ------------------------------------

COMPONENTS = ("prefill-0", "decode-0", "fleet")
TAGS = ("batch-start", "finish", "swap-out")
RESERVED = {"time", "component", "tag"}  # emit's own parameters

#: One (component, tag) emitted with different key sets in different orders.
SHAPED = st.lists(st.sampled_from(["a", "b", "kind", "z"]), unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: SCALARS for key in keys})
)
ROWS = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        st.sampled_from(COMPONENTS),
        st.sampled_from(TAGS),
        st.one_of(SHAPED, PAYLOADS.filter(lambda p: not RESERVED & p.keys())),
    ),
    max_size=12,
)


@settings(max_examples=search_depth(200), deadline=None)
@given(ROWS)
def test_round_trip_matches_list_model(rows):
    log = TraceLog()
    for time, component, tag, payload in rows:
        log.emit(time, component, tag, **payload)
    model = [TraceRecord(*row) for row in rows]

    assert len(log) == len(rows)
    assert list(log.iter_raw()) == rows
    assert log.records == model
    assert list(log) == model
    for tag in (None, *TAGS):
        for component in (None, *COMPONENTS):
            assert log.filter(tag=tag, component=component) == [
                r for r in model if tag in (None, r.tag) and component in (None, r.component)
            ]
    for tag in TAGS:
        assert log.count(tag) == sum(1 for r in model if r.tag == tag)
    assert canonical_json(log.to_rows()) == canonical_json([raw_row(*row) for row in rows])
    expected = digest_lines(raw_row_json(*row) for row in rows)
    assert log.fingerprint() == expected
    assert fingerprint_records(log) == expected
