"""Figure 12: bottleneck-aware adaptation under imbalanced allocations.

OPT-13B / ShareGPT with two deliberately skewed placements:

* ``[TP-2 | TP-1]`` — DistServe limited by TPOT (decode starves);
  WindServe recovers via Dynamic Rescheduling;
* ``[TP-2 | TP-2]`` — DistServe limited by TTFT (prefill starves);
  WindServe recovers via Dynamic Prefill Dispatch.
"""

from __future__ import annotations

import pytest
from conftest import save_report

from repro.harness.report import format_table
from repro.harness.cell import Cell

CONFIGS = {
    "tp2-tp1": dict(decode_parallel=(1, 1), rates=[2.5, 3.5]),
    "tp2-tp2": dict(decode_parallel=(2, 1), rates=[3.5, 4.5]),
}


def run_config(name: str) -> list[dict]:
    cfg = CONFIGS[name]
    rows = []
    for rate in cfg["rates"]:
        for system in ("windserve", "distserve"):
            result = Cell(
                system=system,
                model="opt-13b",
                dataset="sharegpt",
                rate_per_gpu=rate,
                num_requests=400,
                seed=43,
                decode_parallel=cfg["decode_parallel"],
            ).run()
            s = result.summary()
            rows.append(
                {
                    "rate/gpu": rate,
                    "system": system,
                    "slo attainment": s["slo_attainment"],
                    "ttft attainment": s["ttft_attainment"],
                    "tpot attainment": s["tpot_attainment"],
                    "dispatched": result.metrics.counters.get("dispatched_prefill", 0),
                    "rescheduled": result.metrics.counters.get("reschedule_completed", 0),
                }
            )
    return rows


def _top(rows, system):
    top_rate = max(r["rate/gpu"] for r in rows)
    return next(r for r in rows if r["system"] == system and r["rate/gpu"] == top_rate)


def test_fig12_decode_bound(benchmark, output_dir):
    rows = benchmark.pedantic(run_config, args=("tp2-tp1",), rounds=1, iterations=1)
    ws, ds = _top(rows, "windserve"), _top(rows, "distserve")
    # The decode bottleneck materially violates DistServe's TPOT SLO (in
    # our simulator it also backs up into prefill-side stalls, so TTFT
    # suffers too — DistServe's whole pipeline clogs)...
    assert ds["tpot attainment"] < 0.9
    # ...which WindServe mitigates via rescheduling.
    assert ws["rescheduled"] > 0
    assert ws["tpot attainment"] > ds["tpot attainment"]
    assert ws["slo attainment"] > ds["slo attainment"]
    rendered = format_table(rows, title="Fig 12 (left) - [TP-2 | TP-1], decode-bound")
    save_report(output_dir, "fig12_tp2_tp1", rows, rendered)


def test_fig12_prefill_bound(benchmark, output_dir):
    rows = benchmark.pedantic(run_config, args=("tp2-tp2",), rounds=1, iterations=1)
    ws, ds = _top(rows, "windserve"), _top(rows, "distserve")
    # DistServe's binding constraint is TTFT under this placement...
    assert ds["ttft attainment"] < ds["tpot attainment"]
    # ...which WindServe mitigates via dispatch.
    assert ws["dispatched"] > 0
    assert ws["ttft attainment"] > ds["ttft attainment"]
    assert ws["slo attainment"] > ds["slo attainment"]
    rendered = format_table(rows, title="Fig 12 (right) - [TP-2 | TP-2], prefill-bound")
    save_report(output_dir, "fig12_tp2_tp2", rows, rendered)
