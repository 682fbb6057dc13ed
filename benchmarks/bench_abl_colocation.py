"""Ablation: co-location technology for dispatched prefills (§3.4).

The paper argues CUDA streams beat the alternatives NVIDIA offers for GPU
sharing: regular fused batches interfere, and static partitions (MPS/MIG/
vGPU-style) waste their reserved share whenever only one job type runs.
This bench measures all three modes under the same overload.
"""

from __future__ import annotations

from conftest import save_report

from repro.core.config import WindServeConfig
from repro.harness.report import format_table
from repro.harness.cell import Cell

MODES = {
    "sbd": WindServeConfig(colocation_mode="sbd"),
    "hybrid": WindServeConfig(colocation_mode="hybrid"),
    "static-partition-30%": WindServeConfig(
        colocation_mode="static-partition", static_partition_fraction=0.3
    ),
}


def run_modes():
    rows = []
    for label, ws in MODES.items():
        result = Cell(
            system="windserve",
            model="opt-13b",
            dataset="sharegpt",
            rate_per_gpu=4.0,
            num_requests=400,
            seed=53,
            ws_config=ws,
        ).run()
        s = result.summary()
        rows.append(
            {
                "colocation": label,
                "ttft_p50 (s)": s["ttft_p50"],
                "tpot_p90 (s)": s["tpot_p90"],
                "tpot_p99 (s)": s["tpot_p99"],
                "slo attainment": s["slo_attainment"],
                "dispatched": result.metrics.counters.get("dispatched_prefill", 0),
            }
        )
    return rows


def test_ablation_colocation_modes(benchmark, output_dir):
    rows = benchmark.pedantic(run_modes, rounds=1, iterations=1)
    by = {r["colocation"]: r for r in rows}
    # SBD must beat regular hybrid batching on TPOT (Fig 13a mechanism).
    assert by["sbd"]["tpot_p90 (s)"] < by["hybrid"]["tpot_p90 (s)"]
    # Static partitioning taxes decode permanently: worse TPOT than SBD.
    assert by["sbd"]["tpot_p90 (s)"] < by["static-partition-30%"]["tpot_p90 (s)"]
    # And SBD wins overall service quality.
    assert by["sbd"]["slo attainment"] >= max(
        by["hybrid"]["slo attainment"], by["static-partition-30%"]["slo attainment"]
    )
    rendered = format_table(
        rows, title="Ablation - co-location modes for dispatched prefills (§3.4)"
    )
    save_report(output_dir, "abl_colocation", rows, rendered)
