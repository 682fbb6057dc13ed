"""Figure 11: SLO attainment rates across systems and workloads.

The paper's claim: WindServe improves SLO attainment by at least 1.5x at
high request rates on both the chatbot (ShareGPT) and summarisation
(LongBench) scenarios, beating DistServe *and* chunked-prefill vLLM.
"""

from __future__ import annotations

import pytest
from conftest import save_report

from repro.harness.report import format_table
from repro.harness.cell import Cell

SYSTEMS = ("windserve", "distserve", "vllm")
SCENARIOS = {
    "11a-sharegpt": dict(model="opt-13b", dataset="sharegpt", rates=[2.0, 3.5, 5.0]),
    "11b-longbench": dict(model="llama2-13b", dataset="longbench", rates=[0.8, 1.4, 2.0]),
}


def run_scenario(name: str) -> list[dict]:
    cfg = SCENARIOS[name]
    rows = []
    for rate in cfg["rates"]:
        for system in SYSTEMS:
            result = Cell(
                system=system,
                model=cfg["model"],
                dataset=cfg["dataset"],
                rate_per_gpu=rate,
                num_requests=400,
                seed=41,
            ).run()
            summary = result.summary()
            rows.append(
                {
                    "rate/gpu": rate,
                    "system": system,
                    "slo attainment": summary["slo_attainment"],
                    "ttft attainment": summary["ttft_attainment"],
                    "tpot attainment": summary["tpot_attainment"],
                }
            )
    return rows


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_fig11_slo_attainment(scenario, benchmark, output_dir):
    rows = benchmark.pedantic(run_scenario, args=(scenario,), rounds=1, iterations=1)
    top_rate = max(r["rate/gpu"] for r in rows)
    at_top = {r["system"]: r["slo attainment"] for r in rows if r["rate/gpu"] == top_rate}
    # WindServe >= 1.5x both baselines at the highest rate.
    floor = max(at_top["distserve"], at_top["vllm"], 0.01)
    assert at_top["windserve"] >= 1.5 * floor
    rendered = format_table(rows, title=f"Fig {scenario}: SLO attainment vs rate")
    save_report(output_dir, f"fig11_{scenario}", rows, rendered)
