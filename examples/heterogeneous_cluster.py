#!/usr/bin/env python
"""Heterogeneous-GPU exploration (the paper's §7 Future Work).

The paper argues the PD architecture suits heterogeneous clusters: cheap,
compute-strong / bandwidth-weak GPUs (RTX 4090) for prefill, datacenter
GPUs for decode.  The simulator's hardware model lets us test that today:
compare an all-A800 deployment against one whose *prefill* side runs on
4090-class devices, at equal decode capability.

Run:  python examples/heterogeneous_cluster.py
"""

from repro import (
    A800_80GB,
    Cell,
    format_table,
    get_model,
    ParallelConfig,
)
from repro.hardware.gpu import RTX_4090
from repro.perf.roofline import LatencyModel


def main() -> None:
    model = get_model("llama2-7b")

    # Per-pass costs: where does each device shine?
    rows = []
    for gpu in (A800_80GB, RTX_4090):
        lm = LatencyModel(model, gpu, ParallelConfig(tp=1))
        rows.append(
            {
                "gpu": gpu.name,
                "prefill 2048 (ms)": lm.prefill(2048).duration * 1e3,
                "decode b16 ctx1024 (ms)": lm.decode(16, 16 * 1024).duration * 1e3,
                "prefill bound": "compute" if lm.prefill(2048).compute_bound else "memory",
                "decode bound": "compute" if lm.decode(16, 16 * 1024).compute_bound else "memory",
            }
        )
    print(format_table(rows, title=f"{model.name}: per-pass cost by device"))

    a800 = rows[0]
    r4090 = rows[1]
    prefill_gap = r4090["prefill 2048 (ms)"] / a800["prefill 2048 (ms)"]
    decode_gap = r4090["decode b16 ctx1024 (ms)"] / a800["decode b16 ctx1024 (ms)"]
    print(
        f"\nRTX 4090 is {prefill_gap:.2f}x the A800's prefill latency but "
        f"{decode_gap:.2f}x its decode latency:\nthe compute-heavy prefill phase "
        "loses far less on the consumer card than the bandwidth-bound decode —\n"
        "exactly the asymmetry that makes 4090-prefill / A800-decode deployments "
        "attractive (paper §7).\n"
    )

    # End-to-end: a 4090-based node serving prefill-heavy summarisation.
    rows = []
    for gpu, label in (("a800-80gb", "all-A800"), ("rtx-4090", "all-RTX4090")):
        cell = Cell(
            system="windserve",
            model="llama2-7b",
            dataset="longbench",
            rate_per_gpu=1.5,
            num_requests=300,
            seed=3,
            gpu=gpu,
        )
        s = cell.run().summary()
        rows.append(
            {
                "node": label,
                "ttft_p50 (s)": s["ttft_p50"],
                "tpot_p99 (ms)": s["tpot_p99"] * 1e3,
                "slo %": s["slo_attainment"] * 100,
            }
        )
    print(format_table(rows, title="WindServe on homogeneous nodes (LLaMA2-7B / LongBench)"))


if __name__ == "__main__":
    main()
