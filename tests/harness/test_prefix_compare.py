"""Tests for the prefix-affinity vs locality-blind comparison."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.harness.experiments import DEFAULT_PREFIX_MIX, PREFIX
from repro.workloads.prefixes import PrefixMix


@pytest.fixture(scope="module")
def report():
    return PREFIX.run(replace(PREFIX.base, num_requests=160))


def test_default_mix_parses():
    mix = PrefixMix.parse(DEFAULT_PREFIX_MIX)
    assert len(mix.library.entries) == 8


def test_both_runs_clean(report):
    for name, run in report.runs.items():
        assert run.violations == [], f"{name}: {run.violations}"
        assert run.fields["completed"] == run.fields["submitted"]
    assert report.passed


def test_affinity_beats_blind(report):
    """The headline claim: KV-locality-aware routing wins on latency AND
    total prefill work when the prefix population overflows one cache."""
    blind = report.runs["least-loaded"].fields
    affine = report.runs["prefix-affinity"].fields
    assert affine["mean_ttft"] < blind["mean_ttft"]
    assert affine["prefill_tokens_computed"] < blind["prefill_tokens_computed"]
    assert affine["prefix_hit_rate"] > blind["prefix_hit_rate"]
    assert report.verdicts["affinity_beats_blind"]


def test_warm_beats_cold_in_both_runs(report):
    for name, run in report.runs.items():
        assert run.fields["warm_requests"] > 0, name
        assert run.fields["cold_requests"] > 0, name
        assert run.fields["warm_ttft"] < run.fields["cold_ttft"], name
    assert report.verdicts["warm_beats_cold"]


def test_identical_workload_different_fingerprints(report):
    """Both routers consumed the same bytes but scheduled differently."""
    assert len({run.fields["workload"] for run in report.runs.values()}) == 1
    fingerprints = {run.fingerprint.value for run in report.runs.values()}
    assert len(fingerprints) == len(report.runs)


def test_saved_tokens_are_hit_consistent(report):
    """Every saved prefill token corresponds to a recorded hit, and hits
    only happen on requests that actually carried a prefix."""
    for run in report.runs.values():
        fields = run.fields
        assert fields["prefix_hits"] == fields["warm_requests"]
        assert fields["prefix_tokens_saved"] > 0
        assert fields["prefix_tokens_saved"] <= fields["prefix_hits"] * 512  # mix max len


def test_report_is_json_serialisable(report):
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["affinity_beats_blind"] is True
    assert set(payload["runs"]) == {"least-loaded", "prefix-affinity"}
    assert payload["cells"]["least-loaded"]["prefix_mix"] == DEFAULT_PREFIX_MIX
