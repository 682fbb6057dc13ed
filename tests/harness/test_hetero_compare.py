"""Heterogeneous-fleet comparison: report structure + verdicts."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.harness.cell import Cell, CellRun
from repro.harness.experiments import DEFAULT_SHAPE, HETERO, HETERO_ROUTERS, Report

#: One shared small comparison — four fleet runs is the expensive part.
BASE = replace(HETERO.base, num_requests=48, seed=3)


@pytest.fixture(scope="module")
def report():
    return HETERO.run(BASE)


CELLS = (
    "route:least-loaded",
    "route:predicted-ttft",
    "crash:no-replan",
    "crash:replan",
)


def stub_run(label, **overrides) -> CellRun:
    fields = dict(mean_ttft=0.1, slo_goodput=10, members_replanned=0)
    fields.update(overrides)
    return CellRun(
        cell=Cell(name=label),
        target=None,
        submitted=[],
        metrics=None,
        fingerprint=None,
        fields=fields,
    )


def judge(runs) -> Report:
    return Report("hetero", runs, {v.name: v.check(runs, {}) for v in HETERO.verdicts})


class TestReportStructure:
    def test_four_cells_with_expected_labels(self, report):
        assert tuple(report.runs) == CELLS

    def test_every_cell_passes_the_invariant_suite(self, report):
        # Only the invariants: this small point is not sized for the verdicts.
        for run in report.runs.values():
            assert run.violations == []
            assert run.passed

    def test_cells_conserve_the_workload(self, report):
        for run in report.runs.values():
            assert run.fields["submitted"] == BASE.num_requests
            assert run.fields["completed"] + run.fields["shed"] == run.fields["submitted"]

    def test_routing_cells_are_fault_free(self, report):
        for router in HETERO_ROUTERS:
            run = report.runs[f"route:{router}"]
            assert run.fields["fault_plan"] is None
            assert run.fields["retried"] == 0
            assert run.fields["members_replanned"] == 0

    def test_crash_cells_share_the_fault_plan(self, report):
        for label in ("crash:no-replan", "crash:replan"):
            assert report.runs[label].fields["fault_plan"] == BASE.fault_plan
            assert report.runs[label].fields["router"] == HETERO_ROUTERS[-1]
        assert report.runs["crash:no-replan"].fields["members_replanned"] == 0
        replanned = report.runs["crash:replan"].fields
        assert replanned["members_replanned"] >= 1
        assert len(replanned["replans"]) == replanned["members_replanned"]

    def test_same_router_same_workload_same_fingerprint_prefault(self, report):
        assert len({run.fields["workload"] for run in report.runs.values()}) == 1
        # The two routing cells differ only by router, so their
        # fingerprints must differ (policy identity is hashed) ...
        assert (
            report.runs["route:least-loaded"].fingerprint
            != report.runs["route:predicted-ttft"].fingerprint
        )
        # ... and the crash cells differ only by the replanner.
        assert (
            report.runs["crash:no-replan"].fingerprint
            != report.runs["crash:replan"].fingerprint
        )

    def test_as_dict_round_trip(self, report):
        payload = report.as_dict()
        assert payload["cells"]["route:least-loaded"]["fleet_shape"] == DEFAULT_SHAPE
        assert set(payload["runs"]) == set(CELLS)
        for verdict in ("routing_wins", "replan_fired", "replan_recovers", "passed"):
            assert isinstance(payload[verdict], bool)
        cell = payload["runs"]["crash:replan"]
        for key in (
            "mean_ttft",
            "slo_goodput",
            "members_replanned",
            "replan_requeues",
            "fingerprint",
            "violations",
        ):
            assert key in cell


class TestVerdicts:
    def test_missing_runs_mean_no_verdict(self):
        empty = judge({})
        assert not any(empty.verdicts.values())
        assert not empty.passed

    def test_routing_wins_compares_mean_ttft(self):
        runs = {
            "route:least-loaded": stub_run("route:least-loaded", mean_ttft=0.2),
            "route:predicted-ttft": stub_run("route:predicted-ttft", mean_ttft=0.1),
        }
        assert judge(runs).verdicts["routing_wins"]
        runs["route:predicted-ttft"].fields["mean_ttft"] = 0.3
        assert not judge(runs).verdicts["routing_wins"]

    def test_replan_recovers_needs_an_actual_replan(self):
        runs = {
            "crash:no-replan": stub_run("crash:no-replan", slo_goodput=5),
            "crash:replan": stub_run("crash:replan", slo_goodput=8, members_replanned=0),
        }
        # Better goodput without a replan event does not count.
        assert not judge(runs).verdicts["replan_recovers"]
        runs["crash:replan"].fields["members_replanned"] = 1
        assert judge(runs).verdicts["replan_recovers"]
        runs["crash:replan"].fields["slo_goodput"] = 4
        assert not judge(runs).verdicts["replan_recovers"]

    def test_violations_fail_the_report(self):
        runs = {
            "route:least-loaded": stub_run("route:least-loaded", mean_ttft=0.2),
            "route:predicted-ttft": stub_run("route:predicted-ttft"),
            "crash:no-replan": stub_run("crash:no-replan"),
            "crash:replan": stub_run("crash:replan", members_replanned=1),
        }
        assert judge(runs).passed
        runs["route:least-loaded"].violations = ["lost a request"]
        assert not judge(runs).passed


class TestDefaultSpecVerdicts:
    """The CI smoke runs the default declaration; pin that every verdict holds."""

    def test_default_spec_discriminates(self):
        report = HETERO.run()
        assert all(report.verdicts.values()), report.verdicts
        assert report.passed
