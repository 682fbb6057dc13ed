"""Experiment harness: SLO derivation, system builders, declared cells and comparisons, reports."""

from repro.harness.slo import PAPER_SLOS, derive_slo, paper_slo
from repro.harness.runner import build_system
from repro.harness.report import format_table
from repro.harness.placement_search import search_placement
from repro.harness.timeline import TimelineReport, render_timeline, sparkline
from repro.harness.capacity import CapacityResult, find_capacity
from repro.harness.breakdown import aggregate_breakdown, breakdown_rows
from repro.harness.cell import Cell, CellRun, Workload
from repro.harness.golden import GOLDEN_MATRIX, GoldenDiff, check_goldens, record_goldens

__all__ = [
    "PAPER_SLOS",
    "derive_slo",
    "paper_slo",
    "build_system",
    "format_table",
    "search_placement",
    "TimelineReport",
    "render_timeline",
    "sparkline",
    "CapacityResult",
    "find_capacity",
    "aggregate_breakdown",
    "breakdown_rows",
    "Cell",
    "CellRun",
    "Workload",
    "GOLDEN_MATRIX",
    "GoldenDiff",
    "check_goldens",
    "record_goldens",
]
