"""Figure 3: queuing delays under different static resource allocations.

13B model on ShareGPT at 4 req/s per GPU:

* ``[TP-2 | TP-1]`` — prefill over-provisioned: decode queuing dominates;
* ``[TP-2 | TP-2]`` — decode over-provisioned: prefill queuing dominates.

Static GPU-granularity allocation cannot balance both — the paper's case
for fine-grained dynamic scheduling.
"""

from __future__ import annotations

import numpy as np
from conftest import save_report

from repro.harness.report import format_table
from repro.harness.cell import Cell

RATE = 4.0
CONFIGS = [
    ("[TP-2 | TP-1]", (2, 1), (1, 1)),
    ("[TP-2 | TP-2]", (2, 1), (2, 1)),
]


def run_queuing():
    rows = []
    for label, prefill_par, decode_par in CONFIGS:
        result = Cell(
            system="distserve",
            model="opt-13b",
            dataset="sharegpt",
            rate_per_gpu=RATE,
            num_requests=500,
            seed=29,
            prefill_parallel=prefill_par,
            decode_parallel=decode_par,
        ).run()
        summary = result.summary()
        completed = result.metrics.after_warmup(0.05).completed
        prefill_qd = [
            r.prefill_start - r.arrival_time
            for r in completed
            if r.prefill_start is not None and not r.dispatched_prefill
        ]
        rows.append(
            {
                "placement": label,
                "mean prefill queuing (s)": float(np.mean(prefill_qd)) if prefill_qd else 0.0,
                "mean decode queuing (s)": summary["mean_decode_queue_delay"],
                "swap events": summary["swap_events"],
            }
        )
    return rows


def test_fig3_queuing_delays(benchmark, output_dir):
    rows = benchmark.pedantic(run_queuing, rounds=1, iterations=1)
    tp1, tp2 = rows[0], rows[1]
    # [TP-2 | TP-1]: decode bottleneck -> decode queuing dwarfs prefill's.
    assert tp1["mean decode queuing (s)"] > tp1["mean prefill queuing (s)"]
    # [TP-2 | TP-2]: prefill bottleneck -> prefill queuing dwarfs decode's.
    assert tp2["mean prefill queuing (s)"] > tp2["mean decode queuing (s)"]
    # And the dominant component flips between the two placements.
    assert tp2["mean prefill queuing (s)"] > tp1["mean prefill queuing (s)"]
    assert tp1["mean decode queuing (s)"] > tp2["mean decode queuing (s)"]
    rendered = format_table(
        rows,
        title=f"Fig 3 - queuing delays, OPT-13B/ShareGPT @ {RATE} req/s/GPU (DistServe)",
    )
    save_report(output_dir, "fig03_queuing", rows, rendered)
