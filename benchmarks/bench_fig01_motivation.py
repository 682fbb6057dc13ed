"""Figure 1: TPOT/TTFT degradation of existing systems under high load.

(a) DistServe's decode queuing delay and KV-swap counts grow with request
    rate.  Substitution note: at equal TP our simulated prefill instance
    saturates before decode memory does, so the memory-pressure series uses
    the decode-bound [TP-2 | TP-1] placement, which puts the decode
    instance in exactly the regime the paper's figure depicts.
(b) SLO attainment of DistServe vs vLLM collapses as rate grows, with
    phase-disaggregated DistServe falling *below* colocated vLLM — the
    paper's motivating observation.
"""

from __future__ import annotations

from conftest import save_report

from repro.harness.report import format_table
from repro.harness.cell import Cell

RATES = [3.0, 4.0, 5.0, 6.0]
NUM_REQUESTS = 500


def run_fig1a():
    rows = []
    for rate in RATES:
        result = Cell(
            system="distserve",
            model="opt-13b",
            dataset="sharegpt",
            rate_per_gpu=rate,
            num_requests=NUM_REQUESTS,
            seed=17,
            decode_parallel=(1, 1),
        ).run()
        summary = result.summary()
        rows.append(
            {
                "rate/gpu": rate,
                "mean decode queue delay (s)": summary["mean_decode_queue_delay"],
                "swap events": summary["swap_events"],
                "tpot_p99 (s)": summary["tpot_p99"],
            }
        )
    return rows


def run_fig1b():
    rows = []
    for rate in RATES:
        for system in ("distserve", "vllm"):
            result = Cell(
                system=system,
                model="opt-13b",
                dataset="sharegpt",
                rate_per_gpu=rate,
                num_requests=NUM_REQUESTS,
                seed=17,
            ).run()
            summary = result.summary()
            rows.append(
                {
                    "rate/gpu": rate,
                    "system": system,
                    "slo attainment": summary["slo_attainment"],
                    "ttft_p50 (s)": summary["ttft_p50"],
                    "tpot_p99 (s)": summary["tpot_p99"],
                }
            )
    return rows


def test_fig1a_decode_queuing_and_swapping(benchmark, output_dir):
    rows = benchmark.pedantic(run_fig1a, rounds=1, iterations=1)
    # Queue delay and swapping must grow with rate.
    assert rows[-1]["mean decode queue delay (s)"] > rows[0]["mean decode queue delay (s)"]
    assert rows[-1]["swap events"] >= rows[0]["swap events"]
    assert rows[-1]["swap events"] > 0
    rendered = format_table(
        rows,
        title="Fig 1a - DistServe decode queuing & swapping vs rate "
        "(decode-memory-pressured deployment)",
    )
    save_report(output_dir, "fig01a_motivation", rows, rendered)


def test_fig1b_slo_attainment_collapse(benchmark, output_dir):
    rows = benchmark.pedantic(run_fig1b, rounds=1, iterations=1)
    ds = [r for r in rows if r["system"] == "distserve"]
    vl = [r for r in rows if r["system"] == "vllm"]
    # Both degrade with rate...
    assert ds[-1]["slo attainment"] < ds[0]["slo attainment"]
    assert vl[-1]["slo attainment"] < vl[0]["slo attainment"]
    # ...and at the highest rates PD DistServe is no better than colocated
    # vLLM (the paper's surprising observation).
    assert ds[-1]["slo attainment"] <= vl[-1]["slo attainment"] + 0.05
    rendered = format_table(rows, title="Fig 1b - SLO attainment under load (OPT-13B)")
    save_report(output_dir, "fig01b_motivation", rows, rendered)
