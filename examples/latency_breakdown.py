#!/usr/bin/env python
"""Where does the time go?  Per-stage latency decomposition.

Runs the LongBench summarisation workload through all three systems and
splits every request's latency into prefill-queue, prefill-exec, hand-off
(KV transfer + decode queuing), and decode.  The decomposition makes the
mechanisms visible:

* DistServe pays a fat hand-off stage (blocking post-prefill transfer);
* vLLM pays in the decode stage (chunked-prefill interference);
* WindServe's async transfer and dispatch squeeze both.

Run:  python examples/latency_breakdown.py
"""

from repro import Cell, format_table
from repro.harness.breakdown import breakdown_rows


def main() -> None:
    rows = []
    for system in ("windserve", "distserve", "vllm"):
        cell = Cell(
            system=system,
            model="llama2-13b",
            dataset="longbench",
            rate_per_gpu=1.0,
            num_requests=300,
            seed=9,
        )
        completed = cell.run().metrics.after_warmup(0.05).completed
        rows += breakdown_rows(completed, label=system)
    print(
        format_table(
            rows,
            columns=["system", "component", "mean (s)", "p50 (s)", "p99 (s)"],
            precision=4,
            title="LLaMA2-13B / LongBench @ 1.0 req/s/GPU — latency by stage",
        )
    )


if __name__ == "__main__":
    main()
