"""Figure 2: mean resource utilisation of prefill vs decode instances.

The paper's motivation: the prefill instance's tensor cores run hot while
the decode instance's tensor cores idle (decode is bandwidth-bound), i.e.
``Tensor Core(P) >> Tensor Core(D)`` and ``Mem BW(D)`` is the decode
instance's binding resource.  Reproduced for OPT-13B and OPT-66B under
DistServe (the static PD system the figure characterises).
"""

from __future__ import annotations

from conftest import save_report

from repro.harness.report import format_table
from repro.harness.cell import Cell

SCENARIOS = [
    ("opt-13b", (2, 1), (2, 1), 2.5),
    ("opt-66b", (2, 2), (2, 2), 1.0),
]


def run_utilization():
    rows = []
    for model, prefill_par, decode_par, rate in SCENARIOS:
        metrics = Cell(
            system="distserve",
            model=model,
            dataset="sharegpt",
            rate_per_gpu=rate,
            num_requests=400,
            seed=23,
            prefill_parallel=prefill_par,
            decode_parallel=decode_par,
        ).run().metrics
        prefill, decode = metrics.utilization["prefill"], metrics.utilization["decode"]
        rows.append(
            {
                "model": model,
                "Tensor Core(P)": prefill.compute_utilization(metrics.horizon),
                "Mem BW(P)": prefill.io_utilization(metrics.horizon),
                "Tensor Core(D)": decode.compute_utilization(metrics.horizon),
                "Mem BW(D)": decode.io_utilization(metrics.horizon),
            }
        )
    return rows


def test_fig2_instance_utilization(benchmark, output_dir):
    rows = benchmark.pedantic(run_utilization, rounds=1, iterations=1)
    for row in rows:
        # Decode tensor cores idle relative to prefill's (the paper's point).
        assert row["Tensor Core(D)"] < row["Tensor Core(P)"]
        # Decode's binding resource is memory bandwidth, not compute.
        assert row["Mem BW(D)"] > row["Tensor Core(D)"]
    rendered = format_table(
        rows, title="Fig 2 - mean utilisation per instance (DistServe)", precision=3
    )
    save_report(output_dir, "fig02_utilization", rows, rendered)
