"""Byte-identity of the raw-tuple fingerprint path.

``raw_row_json`` renders a trace tuple straight to canonical JSON without
building the intermediate ``raw_row`` dict; the whole golden store rests
on the two paths producing identical bytes for every payload the
simulator can emit — nested dicts, floats (including non-finite), enums,
numpy scalars, unicode.  Hypothesis hunts for a payload where they split,
and the TraceLog/fingerprint_records equivalence pins the log's columnar
fast path (per-head rendering) against the record-list path.
"""

from __future__ import annotations

import enum

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.fingerprint import (
    canonical_json,
    digest_lines,
    fingerprint_records,
    raw_row,
    raw_row_json,
)
from repro.sim.trace import TraceLog


class Phase(enum.Enum):
    PREFILL = "prefill"
    DECODE = "decode"


SCALARS = st.one_of(
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.text(max_size=20),
    st.booleans(),
    st.none(),
    st.sampled_from([Phase.PREFILL, Phase.DECODE]),
    st.sampled_from([np.int64(7), np.float64(0.25), np.bool_(True)]),
)

PAYLOADS = st.dictionaries(
    st.text(min_size=1, max_size=12),
    st.one_of(
        SCALARS,
        st.lists(SCALARS, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=8), SCALARS, max_size=4),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
    st.text(max_size=16),
    st.text(max_size=16),
    PAYLOADS,
)
def test_raw_row_json_matches_dict_path(time, component, tag, payload):
    assert raw_row_json(time, component, tag, payload) == canonical_json(
        raw_row(time, component, tag, payload)
    )


def test_tracelog_fingerprint_uses_raw_rows():
    log = TraceLog(enabled=True)
    log.emit(0.5, "inst0", "batch-start", requests=3, phase=Phase.PREFILL)
    log.emit(1.25, "inst0", "finish", request_id=7, tokens=np.int64(128))
    log.emit(2.0, "fleet", "member-crash", member="m1", cause=None)
    via_rows = digest_lines(
        canonical_json(raw_row(*row)) for row in log.iter_raw()
    )
    assert log.fingerprint() == via_rows


def test_fingerprint_records_duck_types_iter_raw():
    """fingerprint_records(TraceLog) must equal fingerprint_records(records)."""
    log = TraceLog(enabled=True)
    log.emit(0.1, "a", "swap-out", request_id=1, tokens=64)
    log.emit(0.2, "b", "swap-in", request_id=1, tokens=64)
    assert fingerprint_records(log) == fingerprint_records(log.records)


def test_fingerprint_empty_log():
    log = TraceLog(enabled=True)
    assert fingerprint_records(log) == fingerprint_records([])
