#!/usr/bin/env python
"""Quickstart: serve a synthetic ShareGPT workload with WindServe.

Builds a WindServe deployment (OPT-13B, [TP-2 | TP-2] on a simulated 8x A800
node), runs 500 Poisson-arriving chat requests at 4 req/s per GPU, and
prints the latency/SLO summary plus what the Global Scheduler did.

Run:  python examples/quickstart.py
"""

from repro import Cell


def main() -> None:
    cell = Cell(
        system="windserve",
        model="opt-13b",
        dataset="sharegpt",
        rate_per_gpu=4.0,
        num_requests=500,
        seed=0,
        prefill_parallel=(2, 1),
        decode_parallel=(2, 1),
    )
    run = cell.run()
    slo = cell.slo()

    print(f"WindServe serving {cell.model} on {cell.gpus_used} GPUs "
          f"({cell.rate_per_gpu} req/s per GPU, {cell.num_requests} requests)")
    print(f"derived SLO: TTFT <= {slo.ttft * 1e3:.0f} ms, "
          f"TPOT <= {slo.tpot * 1e3:.0f} ms\n")

    s = run.summary()
    print(f"TTFT   p50 {s['ttft_p50'] * 1e3:8.1f} ms   p99 {s['ttft_p99'] * 1e3:8.1f} ms")
    print(f"TPOT   p90 {s['tpot_p90'] * 1e3:8.1f} ms   p99 {s['tpot_p99'] * 1e3:8.1f} ms")
    print(f"SLO attainment: {s['slo_attainment'] * 100:.1f}%\n")

    c = run.metrics.counters
    print("Global Scheduler activity:")
    print(f"  prefills dispatched to the decode instance : {c.get('dispatched_prefill', 0)}")
    print(f"  assist prefills run via separate stream    : {c.get('assist_prefill', 0)}")
    print(f"  async (overlapped) KV hand-offs            : {c.get('async_handoff', 0)}")
    print(f"  dynamic reschedules completed              : {c.get('reschedule_completed', 0)}")
    print(f"  KV swap-outs (should be ~0)                : {c.get('swap_out', 0)}")


if __name__ == "__main__":
    main()
