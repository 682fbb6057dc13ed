"""Tests for the provenance-tracked pin re-record workflow.

A pin store is only auditable if every re-record explains itself: the
header must chain each replaced digest, `golden check` must stay green on
the refreshed store, and the migration report must surface the metric
deltas a reviewer actually reads — for trace and value pins alike.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness import golden
from repro.harness.cell import Cell
from repro.harness.golden import (
    GOLDEN_MATRIX,
    PINS,
    PROVENANCE_FORMAT_VERSION,
    ValuePin,
    check_goldens,
    golden_path,
    load_golden,
    record_goldens,
    render_migration_report,
    rerecord_goldens,
    scenario_metrics,
    validate_golden_store,
    validate_provenance,
)

REPO_GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

SMALL_NAME = GOLDEN_MATRIX[0].name  # matrix cell used for store-level verbs


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A store with one freshly recorded matrix scenario."""
    directory = tmp_path_factory.mktemp("golden-store")
    record_goldens(directory, only=[SMALL_NAME])
    return directory


class TestProvenanceRoundTrip:
    def test_record_stamps_initial_provenance(self, recorded):
        header, _ = load_golden(golden_path(recorded, SMALL_NAME))
        provenance = header["provenance"]
        assert provenance["format"] == PROVENANCE_FORMAT_VERSION
        assert provenance["prior"] is None
        assert provenance["chain"] == []
        assert provenance["reason"]

    def test_rerecord_writes_prior_and_chain(self, tmp_path):
        record_goldens(tmp_path, only=[SMALL_NAME])
        old_header, _ = load_golden(golden_path(tmp_path, SMALL_NAME))
        outcomes = rerecord_goldens(
            tmp_path, reason="unit rerecord", tag="pr-unit", only=[SMALL_NAME]
        )
        header, _ = load_golden(golden_path(tmp_path, SMALL_NAME))
        provenance = header["provenance"]
        # The replaced fingerprint is preserved byte-for-byte.
        assert provenance["prior"]["combined"] == old_header["combined"]
        assert provenance["prior"]["fingerprint"] == old_header["fingerprint"]
        assert provenance["chain"] == [old_header["combined"]]
        assert provenance["reason"] == "unit rerecord"
        assert provenance["tag"] == "pr-unit"
        assert outcomes[0].prior_combined == old_header["combined"]

    def test_check_passes_after_rerecord(self, tmp_path):
        record_goldens(tmp_path, only=[SMALL_NAME])
        rerecord_goldens(tmp_path, reason="unit rerecord", only=[SMALL_NAME])
        diffs = check_goldens(tmp_path, only=[SMALL_NAME])
        assert all(d.passed for d in diffs)

    def test_second_rerecord_preserves_chain(self, tmp_path):
        record_goldens(tmp_path, only=[SMALL_NAME])
        rerecord_goldens(tmp_path, reason="first", only=[SMALL_NAME])
        first_header, _ = load_golden(golden_path(tmp_path, SMALL_NAME))
        rerecord_goldens(tmp_path, reason="second", only=[SMALL_NAME])
        header, _ = load_golden(golden_path(tmp_path, SMALL_NAME))
        provenance = header["provenance"]
        assert provenance["chain"] == list(
            first_header["provenance"]["chain"]
        ) + [first_header["combined"]]
        assert provenance["prior"]["combined"] == first_header["combined"]
        assert validate_golden_store(tmp_path, only=[SMALL_NAME]) == []

    def test_rerecord_requires_existing_golden(self, tmp_path):
        with pytest.raises(ValueError, match="no golden recorded"):
            rerecord_goldens(tmp_path, reason="nope", only=[SMALL_NAME])

    def test_rerecord_requires_reason(self, tmp_path):
        record_goldens(tmp_path, only=[SMALL_NAME])
        with pytest.raises(ValueError, match="reason"):
            rerecord_goldens(tmp_path, reason="   ", only=[SMALL_NAME])


class TestValidation:
    def test_validate_accepts_fresh_store(self, recorded):
        assert validate_golden_store(recorded, only=[SMALL_NAME]) == []

    def test_validate_flags_missing_provenance(self):
        assert validate_provenance(None)
        assert validate_provenance("not-a-dict")

    def test_validate_flags_format_mismatch(self):
        provenance = {
            "format": 99,
            "reason": "x",
            "prior": None,
            "chain": [],
            "changed": [],
        }
        assert any("format" in p for p in validate_provenance(provenance))

    def test_validate_flags_broken_chain(self):
        provenance = {
            "format": PROVENANCE_FORMAT_VERSION,
            "reason": "x",
            "prior": {"combined": "a" * 64, "fingerprint": {}},
            "chain": ["b" * 64],  # does not end at prior.combined
            "changed": [],
        }
        assert any("chain" in p for p in validate_provenance(provenance))

    def test_validate_flags_empty_reason(self):
        provenance = {
            "format": PROVENANCE_FORMAT_VERSION,
            "reason": "  ",
            "prior": None,
            "chain": [],
            "changed": [],
        }
        assert any("reason" in p for p in validate_provenance(provenance))

    def test_validate_flags_event_count_mismatch(self, tmp_path):
        record_goldens(tmp_path, only=[SMALL_NAME])
        path = golden_path(tmp_path, SMALL_NAME)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one event row
        problems = validate_golden_store(tmp_path, only=[SMALL_NAME])
        assert any("events" in p for p in problems)


class TestMigrationReport:
    def test_scenario_metrics_from_rows(self):
        rows = [
            {"arrival": 0.0, "first_token": 0.5, "finish": 2.5, "output": 5},
            {"arrival": 1.0, "first_token": 1.25, "finish": 1.25, "output": 1},
        ]
        events = [
            {"g": "request-shed"},
            {"g": "request-shed"},
            {"g": "request-requeue"},
            {"g": "batch-start"},
        ]
        metrics = scenario_metrics(rows, events)
        assert metrics["completed"] == 2
        assert metrics["mean_ttft"] == pytest.approx((0.5 + 0.25) / 2)
        assert metrics["mean_tpot"] == pytest.approx(2.0 / 4)  # 1-token req excluded
        assert metrics["makespan"] == 2.5
        assert metrics["shed"] == 2
        assert metrics["requeued"] == 1

    def test_report_names_scenarios_and_deltas(self, tmp_path):
        record_goldens(tmp_path, only=[SMALL_NAME])
        outcomes = rerecord_goldens(tmp_path, reason="report test", only=[SMALL_NAME])
        report = render_migration_report(outcomes)
        assert SMALL_NAME in report
        assert "re-recorded" in report
        # Identical rerecord must say so rather than invent deltas.
        assert "byte-identical" in report


@pytest.fixture
def value_pin(monkeypatch):
    """A cheap value pin, added to the store's pins, whose output the test
    controls through ``state``; ``state["runs"]`` counts producer runs."""
    state = {"mean_ttft": 0.5, "completed": 10, "runs": 0}

    def produce():
        state["runs"] += 1
        return {
            "summary": {"mean_ttft": state["mean_ttft"], "completed": state["completed"]},
            "passed": True,
        }

    pin = ValuePin("unit-value", produce)
    monkeypatch.setattr(golden, "PINS", (*PINS, pin))
    return pin, state


class TestValuePins:
    def test_perturbed_producer_rerecords_with_chain_and_deltas(self, tmp_path, value_pin):
        pin, state = value_pin
        (path,) = record_goldens(tmp_path, only=[pin.name])
        assert path.name == "unit-value.json"
        old_header, _ = load_golden(path)
        state.update(mean_ttft=0.75, completed=12)

        (diff,) = check_goldens(tmp_path, only=[pin.name])
        assert not diff.passed
        assert diff.messages[0] == "value mismatch in: summary"

        outcomes = rerecord_goldens(tmp_path, reason="perturbed producer", only=[pin.name])
        header, value = load_golden(path)
        provenance = header["provenance"]
        assert provenance["reason"] == "perturbed producer"
        assert provenance["prior"] == {"combined": old_header["combined"]}
        assert provenance["chain"] == [old_header["combined"]]
        assert provenance["changed"] == ["summary"]
        assert value == {"summary": {"completed": 12, "mean_ttft": 0.75}, "passed": True}
        assert header["combined"] == pin.digest(value)

        report = render_migration_report(outcomes)
        assert "unit-value  [changed: summary]" in report
        assert "summary.mean_ttft  0.5 -> 0.75  +0.25 (+50.000%)" in report
        assert "summary.completed  10 -> 12  +2 (+20.000%)" in report
        assert "passed" not in report  # only the changed keys are listed
        assert validate_golden_store(tmp_path, only=[pin.name]) == []
        assert all(d.passed for d in check_goldens(tmp_path, only=[pin.name]))

    def test_validate_flags_hand_edited_value_without_running(
        self, tmp_path, value_pin, monkeypatch, capsys
    ):
        pin, state = value_pin
        (path,) = record_goldens(tmp_path, only=[pin.name])
        stored = REPO_GOLDEN_DIR / "run-gpu.json"
        (tmp_path / stored.name).write_text(stored.read_text())
        for edited in (path, tmp_path / stored.name):
            doc = json.loads(edited.read_text())
            doc["value"]["summary"]["completed"] += 1
            edited.write_text(json.dumps(doc, indent=1) + "\n")

        def no_simulation(*args, **kwargs):
            raise AssertionError("validate must not run a simulation")

        monkeypatch.setattr(Cell, "run", no_simulation)
        runs = state["runs"]
        argv = ["golden", "validate", "--dir", str(tmp_path), "--only", pin.name]
        assert main([*argv, "--only", "run-gpu"]) == 1
        out = capsys.readouterr().out
        for name in (pin.name, "run-gpu"):
            assert f"{name}: stored value does not hash to the header's combined digest" in out
        assert state["runs"] == runs


class TestRepoStoreProvenance:
    """The checked-in store must carry valid provenance (PR-8 re-record)."""

    def test_repo_store_validates(self):
        assert validate_golden_store(REPO_GOLDEN_DIR) == []

    def test_repo_store_priors_are_chained(self):
        for scenario in PINS:
            header, _ = load_golden(golden_path(REPO_GOLDEN_DIR, scenario.name))
            provenance = header["provenance"]
            if provenance["prior"] is None:
                # A scenario added after the PR-8 migration starts its chain
                # fresh: initial provenance, nothing to link back to.
                assert provenance["chain"] == [], (
                    f"{scenario.name}: initial record must have an empty chain"
                )
                assert provenance["reason"] == "initial record"
            else:
                assert provenance["chain"][-1] == provenance["prior"]["combined"]
