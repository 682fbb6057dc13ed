"""Ablation: preemption mode under KV pressure — CPU swap vs recompute.

The paper's §2.2 names both failure modes of an overloaded decode pool:
"recomputations and excessive swapping of KV cache blocks".  This bench
compares vLLM's two preemption modes on a memory-pressured replica: swap
pays PCIe round-trips (contending with everything else on the switch),
recompute pays prefill FLOPs again.
"""

from __future__ import annotations

from conftest import save_report

from repro.harness.report import format_table
from repro.harness.cell import Cell
from repro.serving.instance import InstanceConfig


def run_preemption_modes():
    rows = []
    for mode in ("swap", "recompute"):
        result = Cell(
            system="vllm",
            model="opt-13b",
            dataset="sharegpt",
            rate_per_gpu=3.0,
            num_requests=400,
            seed=71,
            instance_config=InstanceConfig(
                preemption_mode=mode, kv_capacity_override_tokens=24576
            ),
        ).run()
        s = result.summary()
        rows.append(
            {
                "preemption": mode,
                "swap events": result.metrics.counters.get("swap_out", 0),
                "recompute events": result.metrics.counters.get("recompute_preempt", 0),
                "ttft_p99 (s)": s["ttft_p99"],
                "tpot_p99 (s)": s["tpot_p99"],
                "slo attainment": s["slo_attainment"],
            }
        )
    return rows


def test_ablation_preemption_mode(benchmark, output_dir):
    rows = benchmark.pedantic(run_preemption_modes, rounds=1, iterations=1)
    swap = next(r for r in rows if r["preemption"] == "swap")
    recompute = next(r for r in rows if r["preemption"] == "recompute")
    # Each mode exercises only its own mechanism.
    assert swap["swap events"] > 0 and swap["recompute events"] == 0
    assert recompute["recompute events"] > 0 and recompute["swap events"] == 0
    rendered = format_table(
        rows, title="Ablation - vLLM preemption under KV pressure: swap vs recompute"
    )
    save_report(output_dir, "abl_preemption", rows, rendered)
