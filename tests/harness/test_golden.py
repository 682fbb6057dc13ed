"""Tests for the golden-trace store and its diffing."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.cell import Cell
from repro.harness.golden import (
    GOLDEN_MATRIX,
    GOLDEN_TAGS,
    check_goldens,
    diff_against_golden,
    first_event_divergence,
    golden_path,
    load_golden,
    record_goldens,
    save_golden,
)

REPO_GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

# One small, fast scenario reused by the unit tests below.
SMALL = Cell(
    name="unit-small", system="windserve", rate_per_gpu=3.0, seed=0, num_requests=10
)


class TestStoreRoundTrip:
    def test_record_then_check_passes(self, tmp_path):
        run = SMALL.run(trace_tags=GOLDEN_TAGS)
        path = save_golden(run, tmp_path)
        assert path.exists()
        diff = diff_against_golden(path, SMALL.run(trace_tags=GOLDEN_TAGS))
        assert diff.passed, diff.report()

    def test_header_contains_scenario_and_fingerprint(self, tmp_path):
        path = save_golden(SMALL.run(trace_tags=GOLDEN_TAGS), tmp_path)
        header, events = load_golden(path)
        assert header["scenario"]["system"] == "windserve"
        assert header["events"] == len(events)
        assert header["combined"]
        assert header["rng"]  # the workload touched named streams

    def test_unknown_scenario_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown golden pin"):
            record_goldens(tmp_path, only=["no-such-scenario"])

    def test_missing_golden_reported_as_failure(self, tmp_path):
        diffs = check_goldens(tmp_path, only=[GOLDEN_MATRIX[0].name])
        assert len(diffs) == 1
        assert not diffs[0].passed
        assert "no golden recorded" in diffs[0].messages[0]

    def test_version_mismatch_rejected(self, tmp_path):
        path = save_golden(SMALL.run(trace_tags=GOLDEN_TAGS), tmp_path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["golden"] = 999
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="format version"):
            load_golden(path)


class TestDiffing:
    def test_perturbed_event_yields_first_divergence(self, tmp_path):
        run = SMALL.run(trace_tags=GOLDEN_TAGS)
        path = save_golden(run, tmp_path)
        # Simulate a scheduler perturbation: change one event payload deep
        # in the stored stream.
        lines = path.read_text().splitlines()
        row = json.loads(lines[10])
        row["p"] = dict(row["p"], perturbed=True)
        lines[10] = json.dumps(row)
        # Invalidate the stored digest so the check reaches the event diff
        # (a real perturbation changes the fresh run instead).
        header = json.loads(lines[0])
        header["combined"] = "0" * 64
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")

        diff = diff_against_golden(path, SMALL.run(trace_tags=GOLDEN_TAGS))
        assert not diff.passed
        report = diff.report()
        assert "first divergence at event #9" in report
        assert "payload delta" in report
        assert "perturbed" in report

    def test_truncated_golden_reports_extra_events(self, tmp_path):
        path = save_golden(SMALL.run(trace_tags=GOLDEN_TAGS), tmp_path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        dropped = lines[:-3]  # drop the last 3 events
        header["events"] = len(dropped) - 1
        # Invalidate the stored digest so the check actually diffs events.
        header["combined"] = "0" * 64
        dropped[0] = json.dumps(header)
        path.write_text("\n".join(dropped) + "\n")

        diff = diff_against_golden(path, SMALL.run(trace_tags=GOLDEN_TAGS))
        assert any("extra events" in m for m in diff.messages)

    def test_first_event_divergence_formats_payload_delta(self):
        expected = [{"t": 1.0, "c": "decode-0", "g": "batch-start", "p": {"n": 4}}]
        actual = [{"t": 1.0, "c": "decode-0", "g": "batch-start", "p": {"n": 5}}]
        message = first_event_divergence(expected, actual)
        assert "event #0" in message
        assert "n: 4 -> 5" in message


class TestRepoGoldens:
    """The checked-in store must match the current simulator behaviour."""

    def test_store_is_complete(self):
        for scenario in GOLDEN_MATRIX:
            assert golden_path(REPO_GOLDEN_DIR, scenario.name).exists(), (
                f"golden for {scenario.name} missing — run `python -m repro golden record`"
            )

    @pytest.mark.parametrize("scenario", GOLDEN_MATRIX, ids=lambda s: s.name)
    def test_checked_in_goldens_match(self, scenario):
        path = golden_path(REPO_GOLDEN_DIR, scenario.name)
        diff = diff_against_golden(path, scenario.run(trace_tags=GOLDEN_TAGS))
        assert diff.passed, "\n" + diff.report()
