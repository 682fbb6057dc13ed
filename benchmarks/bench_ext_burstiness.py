"""Extension: robustness under bursty arrivals.

The paper claims WindServe "performs competitively across diverse
workloads" thanks to its bottleneck awareness.  Production traffic is
burstier than Poisson; this bench re-runs the chatbot comparison under a
Gamma-renewal arrival process (inter-arrival CV = 3) and checks WindServe's
advantage survives the bursts.
"""

from __future__ import annotations

from conftest import save_report

from repro.harness.report import format_table
from repro.harness.cell import Cell


def run_burstiness():
    rows = []
    for process, cv in (("poisson", 1.0), ("bursty", 3.0)):
        for system in ("windserve", "distserve", "vllm"):
            result = Cell(
                system=system,
                model="opt-13b",
                dataset="sharegpt",
                rate_per_gpu=3.0,
                num_requests=400,
                seed=83,
                arrival_process=process,
                burstiness_cv=cv,
            ).run()
            s = result.summary()
            rows.append(
                {
                    "arrivals": f"{process} (cv={cv:g})",
                    "system": system,
                    "ttft_p50 (s)": s["ttft_p50"],
                    "ttft_p99 (s)": s["ttft_p99"],
                    "tpot_p99 (s)": s["tpot_p99"],
                    "slo attainment": s["slo_attainment"],
                }
            )
    return rows


def test_burstiness_robustness(benchmark, output_dir):
    rows = benchmark.pedantic(run_burstiness, rounds=1, iterations=1)

    def pick(arrivals_prefix, system):
        return next(
            r for r in rows if r["arrivals"].startswith(arrivals_prefix) and r["system"] == system
        )

    # Bursts hurt everyone...
    for system in ("windserve", "distserve", "vllm"):
        assert (
            pick("bursty", system)["slo attainment"]
            <= pick("poisson", system)["slo attainment"] + 0.05
        )
    # ...but WindServe stays on top under bursty load.
    ws = pick("bursty", "windserve")["slo attainment"]
    assert ws >= pick("bursty", "distserve")["slo attainment"]
    assert ws >= pick("bursty", "vllm")["slo attainment"]
    rendered = format_table(rows, title="Extension - Poisson vs bursty arrivals (CV=3)")
    save_report(output_dir, "ext_burstiness", rows, rendered)
