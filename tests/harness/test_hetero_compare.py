"""Heterogeneous-fleet comparison: row structure + the ext_hetero_fleet checks."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.harness import claims
from repro.harness.cell import Cell
from repro.harness.claims import compare_runs
from repro.harness.experiments import (
    DEFAULT_SHAPE,
    HETERO_BASE,
    HETERO_ROUTERS,
    hetero_cells,
    hetero_fields,
)

#: One shared small comparison — four fleet runs is the expensive part.
BASE = replace(HETERO_BASE, num_requests=48, seed=3)

CELLS = (
    "route:least-loaded",
    "route:predicted-ttft",
    "crash:no-replan",
    "crash:replan",
)

CHECKS = {v.name: v for c in claims.CLAIMS if c.id == "ext_hetero_fleet" for v in c.checks}


@pytest.fixture(scope="module")
def rows():
    return {r["run"]: r for r in compare_runs(hetero_cells(BASE), hetero_fields)}


def stub_row(label, **overrides) -> dict:
    return {"run": label, "mean_ttft": 0.1, "slo_goodput": 10, "members_replanned": 0, **overrides}


def verdicts(*rows) -> dict[str, bool]:
    return {name: check.check(list(rows)) for name, check in CHECKS.items()}


class TestReportStructure:
    def test_four_cells_with_expected_labels(self, rows):
        assert tuple(rows) == CELLS
        assert all(cell.fleet_shape == DEFAULT_SHAPE for cell in hetero_cells(BASE).values())

    def test_every_cell_passes_the_invariant_suite(self, rows):
        # Only the invariants: this small point is not sized for the checks.
        # compare_runs refuses a run that breaks them, so every cell has a row.
        assert len(rows) == len(CELLS)

    def test_cells_conserve_the_workload(self, rows):
        for row in rows.values():
            assert row["submitted"] == BASE.num_requests
            assert row["completed"] + row["shed"] == row["submitted"]

    def test_routing_cells_are_fault_free(self, rows):
        for router in HETERO_ROUTERS:
            row = rows[f"route:{router}"]
            assert row["fault_plan"] is None
            assert row["retried"] == 0
            assert row["members_replanned"] == 0

    def test_crash_cells_share_the_fault_plan(self, rows):
        for label in ("crash:no-replan", "crash:replan"):
            assert rows[label]["fault_plan"] == BASE.fault_plan
            assert rows[label]["router"] == HETERO_ROUTERS[-1]
        assert rows["crash:no-replan"]["members_replanned"] == 0
        assert rows["crash:replan"]["members_replanned"] >= 1
        fleet = replace(BASE, fleet_policy=HETERO_ROUTERS[-1], fleet_replan=True).run().target
        assert len(fleet.replanner.replans) == fleet.replanned_members >= 1

    def test_same_router_same_workload_same_fingerprint_prefault(self, rows):
        assert len({row["workload"] for row in rows.values()}) == 1
        # The two routing cells differ only by router, so their
        # fingerprints must differ (policy identity is hashed) ...
        routed = (rows[f"route:{router}"]["fingerprint"] for router in HETERO_ROUTERS)
        assert len(set(routed)) == 2
        # ... and the crash cells differ only by the replanner.
        assert rows["crash:no-replan"]["fingerprint"] != rows["crash:replan"]["fingerprint"]


class TestVerdicts:
    def test_missing_runs_mean_no_verdict(self):
        assert not any(verdicts().values())
        routing = (stub_row("route:least-loaded", mean_ttft=0.2), stub_row("route:predicted-ttft"))
        held = verdicts(*routing, stub_row("crash:no-replan"))
        assert held["routing_wins"] and not held["replan_fired"] and not held["replan_recovers"]

    def test_routing_wins_compares_mean_ttft(self):
        blind = stub_row("route:least-loaded", mean_ttft=0.2)
        assert verdicts(blind, stub_row("route:predicted-ttft", mean_ttft=0.1))["routing_wins"]
        assert not verdicts(blind, stub_row("route:predicted-ttft", mean_ttft=0.3))["routing_wins"]

    def test_replan_recovers_needs_an_actual_replan(self):
        degraded = stub_row("crash:no-replan", slo_goodput=5)
        # Better goodput without a replan event does not count.
        held = verdicts(degraded, stub_row("crash:replan", slo_goodput=8, members_replanned=0))
        assert not held["replan_recovers"] and not held["replan_fired"]
        held = verdicts(degraded, stub_row("crash:replan", slo_goodput=8, members_replanned=1))
        assert held["replan_recovers"] and held["replan_fired"]
        held = verdicts(degraded, stub_row("crash:replan", slo_goodput=4, members_replanned=1))
        assert not held["replan_recovers"]

    def test_violations_fail_the_report(self, monkeypatch):
        real_run = Cell.run

        def violated(cell, workload=None):
            run = real_run(cell, workload)
            run.violations = ["lost a request"]
            return run

        monkeypatch.setattr(Cell, "run", violated)
        with pytest.raises(AssertionError, match="lost a request"):
            compare_runs({"route:least-loaded": replace(BASE, num_requests=8)})


class TestDefaultSpecVerdicts:
    """The ext_hetero_fleet claim runs the default cells; every check holds."""

    def test_default_spec_discriminates(self):
        rows = compare_runs(hetero_cells(HETERO_BASE), hetero_fields)
        assert all(verdicts(*rows).values()), verdicts(*rows)
