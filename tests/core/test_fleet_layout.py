"""Fleet GPU layouts, one test per case, against the ``fleet-layouts`` pin.

Every case builds a fleet (or, for ``replan:*``, fails members of the
hetero-s15 shape under the re-planner) and compares, per member, its name
and each instance's GPU ids, GPU type, TP, PP and bound TP link bandwidth
with the value stored in ``tests/golden/fleet-layouts.json``.  Inputs the
builder rejects are stored as ``"ValueError"``.  The pin store holds the
expected values; this module names the case that moved.  Re-record a
deliberate change with ``python -m repro golden rerecord --only
fleet-layouts --reason ...``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness.golden import fleet_layout, fleet_layout_cases, golden_path, load_golden

CASES = fleet_layout_cases()
GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"
STORED = load_golden(golden_path(GOLDEN_DIR, "fleet-layouts"))[1]


def test_table_covers_every_case():
    assert sorted(STORED) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_layout_matches_table(key):
    assert fleet_layout(CASES[key]) == STORED[key]
