"""Tests for the prefix-affinity vs locality-blind comparison."""

from __future__ import annotations

import pytest

from repro.harness import claims
from repro.harness.claims import compare_runs
from repro.harness.experiments import DEFAULT_PREFIX_MIX, PREFIX_BASE, prefix_cells, prefix_fields
from repro.workloads.prefixes import PrefixMix

CHECKS = {v.name: v for c in claims.CLAIMS if c.id == "ext_prefix" for v in c.checks}


@pytest.fixture(scope="module")
def rows():
    return compare_runs(prefix_cells(PREFIX_BASE), prefix_fields)


def by_run(rows):
    return {r["run"]: r for r in rows}


def test_default_mix_parses():
    mix = PrefixMix.parse(DEFAULT_PREFIX_MIX)
    assert len(mix.library.entries) == 8


def test_both_runs_clean(rows):
    # compare_runs refuses a run that breaks the invariant suite.
    assert [r["run"] for r in rows] == ["least-loaded", "prefix-affinity"]
    for row in rows:
        assert row["completed"] == row["submitted"]


def test_affinity_beats_blind(rows):
    """The headline claim: KV-locality-aware routing wins on latency AND
    total prefill work when the prefix population overflows one cache."""
    blind, affine = by_run(rows)["least-loaded"], by_run(rows)["prefix-affinity"]
    assert affine["mean_ttft"] < blind["mean_ttft"]
    assert affine["prefill_tokens_computed"] < blind["prefill_tokens_computed"]
    assert affine["prefix_hit_rate"] > blind["prefix_hit_rate"]
    assert CHECKS["affinity_beats_blind"].check(rows)
    # Swap the routers' numbers and the check must fail.
    swapped = [{**affine, "run": "least-loaded"}, {**blind, "run": "prefix-affinity"}]
    assert not CHECKS["affinity_beats_blind"].check(swapped)


def test_warm_beats_cold_in_both_runs(rows):
    for row in rows:
        assert row["warm_requests"] > 0, row["run"]
        assert row["cold_requests"] > 0, row["run"]
        assert row["warm_ttft"] < row["cold_ttft"], row["run"]
    assert CHECKS["warm_beats_cold"].check(rows)
    for broken in ({"warm_ttft": None}, {"warm_ttft": 1.0}):
        assert not CHECKS["warm_beats_cold"].check([rows[0], {**rows[1], **broken}])
    assert not CHECKS["warm_beats_cold"].check([])


def test_identical_workload_different_fingerprints(rows):
    """Both routers consumed the same bytes but scheduled differently."""
    assert len({row["workload"] for row in rows}) == 1
    assert len({row["fingerprint"] for row in rows}) == len(rows)


def test_saved_tokens_are_hit_consistent(rows):
    """Every saved prefill token corresponds to a recorded hit, and hits
    only happen on requests that actually carried a prefix."""
    for row in rows:
        assert row["prefix_hits"] == row["warm_requests"]
        assert row["prefix_tokens_saved"] > 0
        assert row["prefix_tokens_saved"] <= row["prefix_hits"] * 512  # mix max len
