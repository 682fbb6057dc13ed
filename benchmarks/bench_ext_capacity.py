"""Extension: goodput capacity per system.

Collapses the Fig. 10/11 rate sweeps into one number per system: the
highest per-GPU request rate at which 70% of requests meet both SLOs
(the derived TTFT SLOs leave a long-prompt tail that can never meet them
at any rate, so 90% is unattainable for some scenarios)
(DistServe's goodput methodology applied to all three systems, both
scenarios).
"""

from __future__ import annotations

from conftest import save_report

from repro.harness.capacity import find_capacity
from repro.harness.report import format_table
from repro.harness.cell import Cell

SCENARIOS = {
    "opt-13b/sharegpt": dict(model="opt-13b", dataset="sharegpt", high=8.0),
    "llama2-13b/longbench": dict(model="llama2-13b", dataset="longbench", high=3.0),
}
SYSTEMS = ("windserve", "distserve", "vllm")


def run_capacity():
    rows = []
    for label, cfg in SCENARIOS.items():
        for system in SYSTEMS:
            cell = Cell(
                system=system,
                model=cfg["model"],
                dataset=cfg["dataset"],
                rate_per_gpu=1.0,
                num_requests=250,
                seed=107,
            )
            result = find_capacity(
                cell, target_attainment=0.7, low=0.2, high=cfg["high"], iterations=6
            )
            rows.append(
                {
                    "scenario": label,
                    "system": system,
                    "capacity (req/s/GPU @ 70% SLO)": result.capacity_per_gpu,
                    "attainment there": result.attainment_at_capacity,
                }
            )
    return rows


def test_goodput_capacity(benchmark, output_dir):
    rows = benchmark.pedantic(run_capacity, rounds=1, iterations=1)
    for label in SCENARIOS:
        series = {r["system"]: r for r in rows if r["scenario"] == label}
        ws = series["windserve"]["capacity (req/s/GPU @ 70% SLO)"]
        ds = series["distserve"]["capacity (req/s/GPU @ 70% SLO)"]
        vl = series["vllm"]["capacity (req/s/GPU @ 70% SLO)"]
        assert ws > ds
        assert ws >= vl
    rendered = format_table(
        rows, title="Extension - goodput capacity at 70% SLO attainment"
    )
    save_report(output_dir, "ext_capacity", rows, rendered)
