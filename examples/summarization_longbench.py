#!/usr/bin/env python
"""Summarisation scenario: LLaMA2 on LongBench (paper §5.2, Figs. 10c/10d).

Long prompts (~2.9K tokens) with short outputs stress the prefill side and
the KV-transfer path.  WindServe's asynchronous, layer-overlapped hand-off
keeps TPOT low (the transfer no longer sits between prefill and decode),
at the cost of a slight TTFT increase — both effects the paper observes.

Run:  python examples/summarization_longbench.py  [--fast]
"""

import sys

from repro import Cell, format_table


def main(fast: bool = False) -> None:
    rates = [1.0, 1.5] if fast else [0.5, 1.0, 1.5, 2.0, 2.5]
    num_requests = 200 if fast else 400

    rows = []
    for rate in rates:
        for system in ("windserve", "distserve", "vllm"):
            cell = Cell(
                system=system,
                model="llama2-13b",
                dataset="longbench",
                rate_per_gpu=rate,
                num_requests=num_requests,
                seed=21,
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
    print(format_table(rows, title="LLaMA2-13B / LongBench (summarisation) rate sweep"))

    # The GQA effect (Fig. 10d): LLaMA2-70B's KV is ~8x smaller per token,
    # shrinking the transfer the async hand-off hides.
    from repro import get_model

    kv13 = get_model("llama2-13b").kv_bytes_per_token / 1024
    kv70 = get_model("llama2-70b").kv_bytes_per_token / 1024
    print(f"\nKV per token: LLaMA2-13B (MHA) {kv13:.0f} KiB vs "
          f"LLaMA2-70B (GQA) {kv70:.0f} KiB -> transfer-hiding matters less for 70B")


if __name__ == "__main__":
    main(fast="--fast" in sys.argv)
