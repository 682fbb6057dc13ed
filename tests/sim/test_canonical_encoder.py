"""The canonical JSON encoder against the encoding it replaced.

Every pin's stored bytes rest on ``canonical_json`` rendering exactly what
the earlier ``_canonicalize`` + ``json.dumps(sort_keys=True)`` pair did.
:func:`reference_json` keeps a copy of that pair (less its silent ``repr``
fallback), and the tests below require identical bytes on every row of the
pin store and on Hypothesis-built payloads.  They also pin the encoder's
refusal of values with no canonical form, and that fingerprinting the
requests of a run holds no list of rows.
"""

from __future__ import annotations

import enum
import json
import tracemalloc
from collections.abc import Mapping
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import golden
from repro.serving.request import Request
from repro.sim.fingerprint import (
    UnencodableValue,
    canonical_json,
    digest_lines,
    fingerprint_requests,
    raw_row_json,
)
from tests.conftest import search_depth

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"


def _reference(value):
    if isinstance(value, Mapping):
        return {str(k): _reference(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return _reference(value.item())
    if hasattr(value, "value") and not callable(value.value):  # enums
        return _reference(value.value)
    raise AssertionError(f"the reference would have hashed repr({value!r})")


def reference_json(value) -> str:
    return json.dumps(_reference(value), sort_keys=True, separators=(",", ":"), allow_nan=True)


# -- the pin store ---------------------------------------------------------------


TRACE_PINS = sorted(GOLDEN_DIR.glob("*.jsonl"))
VALUE_PINS = sorted(GOLDEN_DIR.glob("*.json"))
CANONICAL_RENDER = {pin.name: pin.render is canonical_json for pin in golden.VALUE_PINS}


@pytest.mark.parametrize("path", TRACE_PINS, ids=lambda p: p.stem)
def test_trace_pin_rows_encode_as_before(path):
    header_line, *event_lines = path.read_text().splitlines()
    header = json.loads(header_line)
    assert canonical_json(header) == reference_json(header) == header_line
    for line in event_lines:
        row = json.loads(line)
        assert raw_row_json(row["t"], row["c"], row["g"], row["p"]) == line
        assert canonical_json(row) == reference_json(row) == line
    rows = [canonical_json(row) for row in header["requests"]]
    assert rows == [reference_json(row) for row in header["requests"]]
    assert digest_lines(rows) == header["fingerprint"]["requests"]


@pytest.mark.parametrize("path", VALUE_PINS, ids=lambda p: p.stem)
def test_value_pin_bodies_encode_as_before(path):
    header = json.loads(path.read_text())
    text = canonical_json(header["value"])
    assert text == reference_json(header["value"])
    if CANONICAL_RENDER[path.stem]:  # the rest hash a verb's ``--json`` stdout
        assert sha256(text.encode("utf-8")).hexdigest() == header["combined"]


# -- arbitrary payloads -----------------------------------------------------------


class Colour(str, enum.Enum):
    RED = "red"
    BLUE = "blue"


class Level(enum.Enum):
    LOW = 1
    HIGH = 2.5


class Rank(enum.IntEnum):
    FIRST = 1


SCALARS = st.one_of(
    st.integers(),  # unbounded: well past 2**53
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(-0.0),
    st.booleans(),
    st.none(),
    st.text(),  # control, non-ASCII and surrogate characters included
    st.sampled_from([*Colour, *Level, *Rank]),
    st.sampled_from([np.int64(-7), np.float64(-0.0), np.float32(0.1), np.bool_(False)]),
)
KEYS = st.one_of(st.text(max_size=8), st.integers(-3, 12), st.booleans(), st.none(), st.floats())
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=5),
        st.dictionaries(st.sampled_from(list(Colour)), inner, max_size=2),
    ),
    max_leaves=20,
)


@settings(max_examples=search_depth(400), deadline=None)
@given(PAYLOADS)
def test_arbitrary_payloads_encode_as_before(value):
    assert canonical_json(value) == reference_json(value)


@settings(max_examples=search_depth(100), deadline=None)
@given(st.floats(), st.text(), st.text(), st.dictionaries(st.text(), PAYLOADS, max_size=5))
def test_raw_rows_encode_as_before(time, component, tag, payload):
    row = {"t": time, "c": component, "g": tag, "p": payload}
    assert raw_row_json(time, component, tag, payload) == reference_json(row)


class TestUnencodable:
    def test_names_type_and_key_path(self):
        with pytest.raises(TypeError, match=r"object at \['a'\]\[1\]\['b'\]"):
            canonical_json({"a": [0, {"b": object()}]})

    def test_top_level(self):
        with pytest.raises(UnencodableValue, match="set at the top level"):
            canonical_json({1, 2})

    def test_object_with_default_repr_is_refused(self):
        class Opaque:
            pass

        with pytest.raises(TypeError, match=r"Opaque at \['x'\]"):
            canonical_json({"x": Opaque()})


# -- the request fingerprint's memory -------------------------------------------------


def _requests(n: int) -> list[Request]:
    requests = []
    for rid in range(n):
        request = Request(
            request_id=rid, prompt_tokens=100 + rid, output_tokens=10, arrival_time=rid * 0.01
        )
        request.output_generated = 10
        request.prefill_start = request.arrival_time + 0.001
        request.first_token_time = request.arrival_time + 0.05
        request.decode_start = request.arrival_time + 0.06
        request.finish_time = request.arrival_time + 0.5
        requests.append(request)
    return requests[::-1]  # fingerprinting sorts by id


def _peak_bytes(requests: list[Request]) -> int:
    tracemalloc.start()
    try:
        fingerprint_requests(requests)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_request_fingerprint_holds_no_row_list():
    small, large = _requests(1_000), _requests(8_000)
    assert _peak_bytes(large) - _peak_bytes(small) < 2**20
