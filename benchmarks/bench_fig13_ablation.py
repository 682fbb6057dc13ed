"""Figure 13: ablation studies.

(a) *WindServe-no-split* (no stream-based disaggregation) on LongBench:
    dispatched prefills fold into regular hybrid batches, inflating TPOT
    P99 while barely moving TTFT.
(b) *WindServe-no-resche* (no dynamic rescheduling) on ShareGPT under a
    decode-bound placement: decode queuing + KV-swap I/O inflate TPOT P99,
    again with minimal TTFT impact.
"""

from __future__ import annotations

from conftest import save_report

from repro.harness.report import format_table
from repro.harness.cell import Cell


def run_no_split():
    rows = []
    for system in ("windserve", "windserve-no-split"):
        for rate in (1.2, 1.8):
            result = Cell(
                system=system,
                model="opt-13b",
                dataset="longbench",
                rate_per_gpu=rate,
                num_requests=400,
                seed=47,
            ).run()
            s = result.summary()
            rows.append(
                {
                    "system": system,
                    "rate/gpu": rate,
                    "ttft_p99 (s)": s["ttft_p99"],
                    "tpot_p99 (s)": s["tpot_p99"],
                    "slo attainment": s["slo_attainment"],
                }
            )
    return rows


def run_no_resche():
    rows = []
    for system in ("windserve", "windserve-no-resche"):
        for rate in (2.5, 3.5):
            result = Cell(
                system=system,
                model="opt-13b",
                dataset="sharegpt",
                rate_per_gpu=rate,
                num_requests=400,
                seed=47,
                decode_parallel=(1, 1),
            ).run()
            s = result.summary()
            rows.append(
                {
                    "system": system,
                    "rate/gpu": rate,
                    "ttft_p99 (s)": s["ttft_p99"],
                    "tpot_p99 (s)": s["tpot_p99"],
                    "swap events": s["swap_events"],
                    "slo attainment": s["slo_attainment"],
                }
            )
    return rows


def _at(rows, system, rate):
    return next(r for r in rows if r["system"] == system and r["rate/gpu"] == rate)


def test_fig13a_no_split(benchmark, output_dir):
    rows = benchmark.pedantic(run_no_split, rounds=1, iterations=1)
    top = max(r["rate/gpu"] for r in rows)
    full, ablated = _at(rows, "windserve", top), _at(rows, "windserve-no-split", top)
    # SBD protects TPOT P99...
    assert full["tpot_p99 (s)"] < ablated["tpot_p99 (s)"]
    # ...with minimal TTFT impact (paper: 'both technologies have minimal
    # impact on TTFT').
    assert ablated["ttft_p99 (s)"] <= 3 * full["ttft_p99 (s)"] + 0.5
    rendered = format_table(
        rows, title="Fig 13a - WindServe-no-split, OPT-13B/LongBench P99 latencies"
    )
    save_report(output_dir, "fig13a_no_split", rows, rendered)


def test_fig13b_no_resche(benchmark, output_dir):
    rows = benchmark.pedantic(run_no_resche, rounds=1, iterations=1)
    top = max(r["rate/gpu"] for r in rows)
    full, ablated = _at(rows, "windserve", top), _at(rows, "windserve-no-resche", top)
    # Rescheduling cuts TPOT P99 (less queuing, less swap I/O)...
    assert full["tpot_p99 (s)"] < ablated["tpot_p99 (s)"]
    # ...and eliminates most swapping.
    assert full["swap events"] <= ablated["swap events"]
    rendered = format_table(
        rows, title="Fig 13b - WindServe-no-resche, OPT-13B/ShareGPT [TP-2|TP-1] P99s"
    )
    save_report(output_dir, "fig13b_no_resche", rows, rendered)
