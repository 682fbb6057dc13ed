"""Figure 10: end-to-end latency, WindServe vs DistServe vs vLLM.

Four panels, as in the paper:

* 10a/10b — Chatbot: OPT-13B and OPT-66B on ShareGPT (TTFT P50/P99 and
  TPOT P90/P99 versus per-GPU rate);
* 10c/10d — Summarisation: LLaMA2-13B and LLaMA2-70B on LongBench.

Shape targets from the paper (absolute values are testbed-specific):
WindServe cuts TTFT median by 1.65-4.28x and TPOT P99 by ~1.5x versus
DistServe at high rates; at low rates the systems are comparable.
"""

from __future__ import annotations

import pytest
from conftest import save_report

from repro.harness.report import format_table
from repro.harness.cell import Cell

NUM_REQUESTS = 400
SYSTEMS = ("windserve", "distserve", "vllm")

PANELS = {
    "10a/b-opt-13b": dict(
        model="opt-13b", dataset="sharegpt", parallel=((2, 1), (2, 1)),
        rates=[2.0, 3.0, 4.0, 5.0],
    ),
    "10a/b-opt-66b": dict(
        model="opt-66b", dataset="sharegpt", parallel=((2, 2), (2, 2)),
        rates=[0.3, 0.45, 0.6],
    ),
    "10c/d-llama2-13b": dict(
        model="llama2-13b", dataset="longbench", parallel=((2, 1), (2, 1)),
        rates=[0.5, 1.0, 1.5],
    ),
    "10c/d-llama2-70b": dict(
        model="llama2-70b", dataset="longbench", parallel=((2, 2), (2, 2)),
        rates=[0.1, 0.15, 0.2],
    ),
}


def run_panel(panel: str) -> list[dict]:
    cfg = PANELS[panel]
    rows = []
    for rate in cfg["rates"]:
        for system in SYSTEMS:
            result = Cell(
                system=system,
                model=cfg["model"],
                dataset=cfg["dataset"],
                rate_per_gpu=rate,
                num_requests=NUM_REQUESTS,
                seed=37,
                prefill_parallel=cfg["parallel"][0],
                decode_parallel=cfg["parallel"][1],
            ).run()
            s = result.summary()
            rows.append(
                {
                    "rate/gpu": rate,
                    "system": system,
                    "ttft_p50 (s)": s["ttft_p50"],
                    "ttft_p99 (s)": s["ttft_p99"],
                    "tpot_p90 (s)": s["tpot_p90"],
                    "tpot_p99 (s)": s["tpot_p99"],
                    "slo": s["slo_attainment"],
                }
            )
    return rows


def _series(rows, system):
    return [r for r in rows if r["system"] == system]


@pytest.mark.parametrize("panel", list(PANELS))
def test_fig10_panel(panel, benchmark, output_dir):
    rows = benchmark.pedantic(run_panel, args=(panel,), rounds=1, iterations=1)
    ws, ds = _series(rows, "windserve"), _series(rows, "distserve")
    top = -1  # highest-rate point
    # Headline shape: WindServe's TTFT median beats DistServe's at the
    # highest rate, by at least the paper's lower bound on its range.
    assert ds[top]["ttft_p50 (s)"] / ws[top]["ttft_p50 (s)"] >= 1.3
    # TPOT P99 no worse than ~DistServe's at high load.  (The paper itself
    # reports a slight TPOT increase for OPT-66B from SBD's decoding
    # overhead when DistServe isn't yet swap-bound.)
    assert ws[top]["tpot_p99 (s)"] <= 1.3 * ds[top]["tpot_p99 (s)"]
    # Overall service quality must win.
    assert ws[top]["slo"] >= ds[top]["slo"]
    rendered = format_table(
        rows, title=f"Fig {panel}: end-to-end latency vs per-GPU rate", precision=4
    )
    save_report(output_dir, f"fig10_{panel.replace('/', '_')}", rows, rendered)
