#!/usr/bin/env python
"""Chatbot scenario: WindServe vs DistServe vs vLLM on ShareGPT (paper §5.2).

Sweeps the per-GPU request rate for OPT-13B and prints the Fig. 10a/10b-style
series: TTFT P50/P99 and TPOT P90/P99 per system, plus SLO attainment
(Fig. 11a).  WindServe should hold latency flat well past the rate where
DistServe's prefill queue and vLLM's interference blow up.

Run:  python examples/chatbot_sharegpt.py  [--fast]
"""

import sys

from repro import Cell, format_table


def main(fast: bool = False) -> None:
    rates = [2.0, 3.0, 4.0] if fast else [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    num_requests = 200 if fast else 500

    rows = []
    for rate in rates:
        for system in ("windserve", "distserve", "vllm"):
            cell = Cell(
                system=system,
                model="opt-13b",
                dataset="sharegpt",
                rate_per_gpu=rate,
                num_requests=num_requests,
                seed=13,
            )
            s = cell.run().summary()
            rows.append(
                {
                    "rate/gpu": rate,
                    "system": system,
                    "ttft_p50 (s)": s["ttft_p50"],
                    "ttft_p99 (s)": s["ttft_p99"],
                    "tpot_p90 (ms)": s["tpot_p90"] * 1e3,
                    "tpot_p99 (ms)": s["tpot_p99"] * 1e3,
                    "slo %": s["slo_attainment"] * 100,
                }
            )

    print(format_table(rows, title="OPT-13B / ShareGPT (chatbot), per-GPU rate sweep"))

    ws = [r for r in rows if r["system"] == "windserve"]
    ds = [r for r in rows if r["system"] == "distserve"]
    speedup = max(d["ttft_p50 (s)"] / w["ttft_p50 (s)"] for w, d in zip(ws, ds))
    print(f"\nbest TTFT median improvement over DistServe: {speedup:.2f}x "
          f"(paper reports up to 4.28x)")


if __name__ == "__main__":
    main(fast="--fast" in sys.argv)
