"""Figure 5: dispatch-threshold sensitivity.

Sweeps Algorithm 1's ``thrd`` as a fraction of the TTFT SLO for the two
scenarios the paper uses (OPT-13B/ShareGPT @ 4 req/s/GPU and
LLaMA2-13B/LongBench @ 1.5 req/s/GPU).  The paper's finding: SLO attainment
peaks at a threshold slightly below the TTFT SLO — too low floods the
decode instance with prefills, too high leaves dispatch unused.
"""

from __future__ import annotations

from conftest import save_report

from repro.core.config import WindServeConfig
from repro.harness.report import format_table
from repro.harness.cell import Cell

FRACTIONS = [0.1, 0.3, 0.6, 0.9, 1.5, 3.0]
SCENARIOS = [
    ("opt-13b", "sharegpt", 4.0),
    ("llama2-13b", "longbench", 1.5),
]


def run_threshold_sweep():
    rows = []
    for model, dataset, rate in SCENARIOS:
        for frac in FRACTIONS:
            result = Cell(
                system="windserve",
                model=model,
                dataset=dataset,
                rate_per_gpu=rate,
                num_requests=400,
                seed=31,
                ws_config=WindServeConfig(dispatch_threshold_frac=frac),
            ).run()
            summary = result.summary()
            rows.append(
                {
                    "scenario": f"{model}/{dataset}",
                    "thrd / TTFT-SLO": frac,
                    "slo attainment": summary["slo_attainment"],
                    "ttft_p50 (s)": summary["ttft_p50"],
                    "tpot_p99 (s)": summary["tpot_p99"],
                    "dispatched": result.metrics.counters.get("dispatched_prefill", 0),
                }
            )
    return rows


def test_fig5_threshold_sensitivity(benchmark, output_dir):
    rows = benchmark.pedantic(run_threshold_sweep, rounds=1, iterations=1)
    for model, dataset, _rate in SCENARIOS:
        series = [r for r in rows if r["scenario"] == f"{model}/{dataset}"]
        by_frac = {r["thrd / TTFT-SLO"]: r for r in series}
        # Lower thresholds dispatch more aggressively.
        assert by_frac[0.1]["dispatched"] >= by_frac[3.0]["dispatched"]
        # The paper's operating point (slightly below the SLO) must beat a
        # threshold far above the SLO (dispatch nearly disabled).
        assert by_frac[0.9]["slo attainment"] >= by_frac[3.0]["slo attainment"]
        # TPOT degrades as the threshold drops (more co-located prefills).
        assert by_frac[0.1]["tpot_p99 (s)"] >= by_frac[3.0]["tpot_p99 (s)"] * 0.9
    rendered = format_table(rows, title="Fig 5 - dispatch threshold sweep (WindServe)")
    save_report(output_dir, "fig05_threshold", rows, rendered)
