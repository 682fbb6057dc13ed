"""Tier-1 pin-store check: every pin, in-process.

Parameterising over :data:`~repro.harness.golden.PINS` puts each pin's
diff directly into ``pytest``, one test per pin, with the diff messages as
the assertion text.  A trace pin names its first diverging event; a value
pin (a verb's ``--json`` report, a run's summary and counters, a search,
the fleet layouts) names its changed keys.  A verb pin also fails when
the verb exits non-zero, i.e. on any invariant violation or failed
verdict.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness.golden import PINS, check_goldens, golden_path

GOLDEN_DIR = Path(__file__).resolve().parent


def test_matrix_matches_recorded_files():
    """Every pin has a recording and every recording is a pin."""
    recorded = {p.name for p in GOLDEN_DIR.glob("*.json*")}
    assert recorded == {golden_path(GOLDEN_DIR, pin.name).name for pin in PINS}


@pytest.mark.parametrize("pin", PINS, ids=lambda p: p.name)
def test_golden_scenario(pin):
    (diff,) = check_goldens(GOLDEN_DIR, only=[pin.name])
    assert diff.passed, "\n".join(diff.messages)
