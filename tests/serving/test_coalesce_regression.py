"""Batched decode ticks must be invisible: coalesced vs per-token identity.

``Instance._drain_inline`` folds steady-state decode iterations into the
completing event's frame instead of scheduling one heap event per token.
The claim is exactness, not approximation — a decode interrupted mid-stream
by a crash, a CPU-swap preemption, or an SLO-tier displacement has to
produce the same token timestamps, trace rows, and run fingerprint as the
per-token path.  These tests run matched scenarios down both paths (the
per-token path by patching ``_drain_inline`` to a no-op) and require
byte-identical artefacts.
"""

from __future__ import annotations

import pytest

from repro.harness.golden import GOLDEN_MATRIX, GOLDEN_TAGS
from repro.serving.instance import Instance

# One scenario per interruption mode the coalescing loop must split exactly:
# a decode-instance crash (chaos plan), KV-pressure CPU-swap preemption, and
# SLO-tier displacement under a tiered admission mix.
INTERRUPTION_SCENARIOS = [
    "windserve-chaos-crash-s1",  # crash mid-decode
    "windserve-pressure-r3.5-s3",  # CPU-swap preemption under KV pressure
    "windserve-chaos-tiered-s11",  # SLO-tier displacement + faults
]

_BY_NAME = {s.name: s for s in GOLDEN_MATRIX}


def _disable_coalescing(monkeypatch) -> None:
    """Force the per-token path."""
    monkeypatch.setattr(Instance, "_drain_inline", lambda self, lane: None)


@pytest.mark.parametrize("name", INTERRUPTION_SCENARIOS)
def test_interrupted_decode_matches_per_token_path(name, monkeypatch):
    scenario = _BY_NAME[name]
    coalesced = scenario.run(trace_tags=GOLDEN_TAGS)

    with monkeypatch.context() as patch:
        _disable_coalescing(patch)
        per_token = scenario.run(trace_tags=GOLDEN_TAGS)

    # Token timestamps live in the request rows (first_token/decode/finish);
    # compare them field-by-field before the aggregate hashes so a mismatch
    # names the diverging request instead of just a digest.
    assert coalesced.request_rows == per_token.request_rows
    assert coalesced.event_rows == per_token.event_rows
    assert coalesced.fingerprint == per_token.fingerprint


@pytest.mark.parametrize("name", INTERRUPTION_SCENARIOS)
def test_per_token_path_still_matches_recorded_golden(name, monkeypatch):
    """The no-coalescing path reproduces the recorded goldens too.

    Together with tests/golden/test_golden_suite.py (which runs the
    default, coalescing path) this pins both paths to the same recorded
    bytes, so neither can drift independently.
    """
    from pathlib import Path

    from repro.harness.golden import check_goldens

    golden_dir = Path(__file__).resolve().parent.parent / "golden"
    _disable_coalescing(monkeypatch)
    (diff,) = check_goldens(golden_dir, only=[name])
    assert diff.passed, "\n".join(diff.messages)


def test_coalesce_config_switch(monkeypatch):
    """A plain system run matches its per-token twin event for event."""
    from dataclasses import replace

    from repro.harness.runner import generate_workload

    def run():
        cell = replace(_BY_NAME["windserve-poisson-r3-s0"], num_requests=40)
        system = cell.build()
        workload = generate_workload(cell)
        system.run_to_completion(workload)
        return system.run_fingerprint(workload.rng_registry), system.sim.events_processed

    fp_on, events_on = run()
    with monkeypatch.context() as patch:
        _disable_coalescing(patch)
        fp_off, events_off = run()
    assert events_on == events_off  # coalesced firings still count as events
    assert fp_on == fp_off
