#!/usr/bin/env python
"""Bottleneck-awareness demo (paper §5.3, Fig. 12).

Two deliberately imbalanced placements for OPT-13B on ShareGPT:

* ``[TP-2 | TP-1]`` — the decode instance is under-provisioned: DistServe
  drowns in decode queuing + KV swapping (TPOT bottleneck); WindServe
  reschedules long-context decodes onto the prefill instance's idle memory.
* ``[TP-2 | TP-2]`` — the decode instance is over-provisioned: DistServe's
  prefill queue explodes (TTFT bottleneck); WindServe dispatches prefills
  into the decode instance's idle compute via a separate CUDA stream.

Run:  python examples/bottleneck_aware.py
"""

from repro import Cell, format_table

CONFIGS = {
    "[TP-2 | TP-1] (decode-bound)": dict(decode_parallel=(1, 1), rate_per_gpu=3.5),
    "[TP-2 | TP-2] (prefill-bound)": dict(decode_parallel=(2, 1), rate_per_gpu=4.5),
}


def main() -> None:
    rows = []
    for label, kwargs in CONFIGS.items():
        for system in ("windserve", "distserve"):
            cell = Cell(
                system=system,
                model="opt-13b",
                dataset="sharegpt",
                num_requests=400,
                seed=5,
                **kwargs,
            )
            run = cell.run()
            s, c = run.summary(), run.metrics.counters
            rows.append(
                {
                    "placement": label,
                    "system": system,
                    "ttft_p50 (s)": s["ttft_p50"],
                    "tpot_p99 (ms)": s["tpot_p99"] * 1e3,
                    "slo %": s["slo_attainment"] * 100,
                    "swaps": s["swap_events"],
                    "dispatched": c.get("dispatched_prefill", 0),
                    "rescheduled": c.get("reschedule_completed", 0),
                }
            )
    print(format_table(rows, title="Bottleneck-aware scheduling (Fig. 12 scenario)"))
    print(
        "\nReading: under the decode-bound placement WindServe fixes TPOT via"
        " rescheduling;\nunder the prefill-bound placement it fixes TTFT via"
        " dynamic prefill dispatch."
    )


if __name__ == "__main__":
    main()
