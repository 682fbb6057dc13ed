"""Batched decode ticks must be invisible: decode runs vs per-token identity.

A lane advances two ways: one scheduled completion event per batch
(``_execute`` → ``_complete``), or, for consecutive plain decode
iterations inside the simulator's inline window, a decode run
(``Instance._decode_run``) in the completing event's frame.  The claim is
exactness, not approximation — a decode interrupted mid-stream by a crash,
a CPU-swap or recompute preemption, or an SLO-tier displacement has to
produce the same token timestamps, trace rows, and run fingerprint as the
per-token path.  These tests run matched scenarios down both paths (the
per-token path by patching ``_decode_run`` to a no-op) and require
byte-identical artefacts, for every system that runs decode runs.
"""

from __future__ import annotations

import pytest

from repro.core.config import WindServeConfig
from repro.harness.cell import Cell
from repro.harness.golden import GOLDEN_MATRIX, GOLDEN_TAGS
from repro.serving.instance import Instance, InstanceConfig
from repro.sim.engine import Simulator

# One scenario per interruption mode a decode run must split exactly: a
# decode-instance crash (chaos plan), KV-pressure CPU-swap preemption, and
# SLO-tier displacement under a tiered admission mix; the crash and the
# swap also for the baselines that run decode runs.
INTERRUPTION_SCENARIOS = [
    "windserve-chaos-crash-s1",  # crash mid-decode
    "windserve-pressure-r3.5-s3",  # CPU-swap preemption under KV pressure
    "windserve-chaos-tiered-s11",  # SLO-tier displacement + faults
    "vllm-chaos-crash-s10",  # crash mid-decode on a colocated replica
    "distserve-pressure-r3.5-s3",  # CPU-swap preemption on a DistServe decode
]

_BY_NAME = {s.name: s for s in GOLDEN_MATRIX}


def _disable_coalescing(monkeypatch) -> None:
    """Force the per-token path."""
    monkeypatch.setattr(Instance, "_decode_run", lambda self, lane: None)


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


def _batch_kinds(run) -> set:
    return {
        (row["c"], row["p"]["kind"]) for row in run.event_rows if row["g"] == "batch-start"
    }


# Decode-instance modes and layouts no pin covers, each with the batch
# kind its folded runs must reproduce: the static-partition and no-split
# (hybrid fold-in of assist prefills) colocation modes, a PP-2 decode
# instance (two lanes: a lane folds only while the other is busy), a
# WindServe straggler (every folded iteration scaled by compute_slowdown),
# and a vLLM replica under KV pressure that preempts by recompute (the
# victim re-prefills in hybrid batches between decode runs).
UNPINNED_SCENARIOS = {
    "static-partition": (
        Cell(
            seed=21,
            rate_per_gpu=3.5,
            num_requests=60,
            ws_config=WindServeConfig(colocation_mode="static-partition"),
        ),
        ("decode", "partitioned-decode"),
    ),
    "no-split": (
        Cell(
            seed=22,
            rate_per_gpu=3.5,
            num_requests=60,
            ws_config=WindServeConfig(colocation_mode="hybrid"),
        ),
        ("decode", "hybrid"),
    ),
    "pp2-decode": (
        Cell(seed=23, rate_per_gpu=3.5, num_requests=60, decode_parallel=(1, 2)),
        ("decode", "sbd"),
    ),
    "straggler": (
        Cell(seed=24, rate_per_gpu=1.0, num_requests=60, fault_plan="straggler"),
        ("decode", "sbd"),
    ),
    "vllm-recompute": (
        Cell(
            system="vllm",
            seed=25,
            rate_per_gpu=3.5,
            num_requests=60,
            kv_override_tokens=4096,
            instance_config=InstanceConfig(preemption_mode="recompute"),
        ),
        ("vllm-0", "hybrid"),
    ),
}


@pytest.mark.parametrize("name", sorted(UNPINNED_SCENARIOS))
def test_unpinned_mode_matches_per_token_path(name, monkeypatch):
    cell, kind = UNPINNED_SCENARIOS[name]
    folded = {"slow": 0, "all": 0}
    advance = Simulator.advance_inline
    begin = Instance._begin_batch

    def begin_batch(instance, lane, batch, duration):
        folded["scale"] = instance.compute_slowdown
        begin(instance, lane, batch, duration)

    def advance_inline(sim, duration):
        folded["all"] += 1
        folded["slow"] += folded["scale"] != 1.0
        advance(sim, duration)

    with monkeypatch.context() as patch:
        patch.setattr(Instance, "_begin_batch", begin_batch)
        patch.setattr(Simulator, "advance_inline", advance_inline)
        coalesced = cell.run(trace_tags=GOLDEN_TAGS)
    with monkeypatch.context() as patch:
        _disable_coalescing(patch)
        per_token = cell.run(trace_tags=GOLDEN_TAGS)

    assert folded["all"] > 0
    if cell.fault_plan == "straggler":
        assert folded["slow"] > 0
    if cell.instance_config is not None:
        assert any(row["g"] == "recompute-preempt" for row in coalesced.event_rows)
    assert kind in _batch_kinds(coalesced)
    assert coalesced.violations == per_token.violations == []
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
