"""Ablation: migration victim policy — longest-context vs shortest-context.

The paper contrasts its choice with Llumnix: "Llumnix tends to migrate
short-context requests to reduce migration overhead and fragmentation,
while WindServe tends to migrate longer sequences in order to free up more
space and decrease prefill-decode interference."  This bench quantifies
that trade-off under decode memory pressure.
"""

from __future__ import annotations

from conftest import save_report

from repro.core.config import WindServeConfig
from repro.harness.report import format_table
from repro.harness.cell import Cell


def run_policies():
    rows = []
    for policy in ("longest-context", "shortest-context"):
        cell = Cell(
            system="windserve",
            model="opt-13b",
            dataset="sharegpt",
            rate_per_gpu=3.5,
            num_requests=400,
            seed=59,
            decode_parallel=(1, 1),
            ws_config=WindServeConfig(reschedule_policy=policy),
        )
        run = cell.run()
        system, metrics = run.target, run.metrics
        migration_bytes = sum(
            job.nbytes
            for job in system.transfers.completed
            if job.kind.startswith("migration")
        )
        migrations = metrics.counters.get("reschedule_completed", 0)
        slo = cell.slo()
        rows.append(
            {
                "policy": policy,
                "migrations": migrations,
                "migration GB": migration_bytes / 1024**3,
                "GB per migration": (
                    migration_bytes / 1024**3 / migrations if migrations else 0.0
                ),
                "swap events": metrics.counters.get("swap_out", 0),
                "tpot_p99 (s)": metrics.tpot_stats().p99,
                "slo attainment": metrics.slo_attainment(slo),
            }
        )
    return rows


def test_ablation_reschedule_policy(benchmark, output_dir):
    rows = benchmark.pedantic(run_policies, rounds=1, iterations=1)
    longest = next(r for r in rows if r["policy"] == "longest-context")
    shortest = next(r for r in rows if r["policy"] == "shortest-context")
    assert longest["migrations"] > 0 and shortest["migrations"] > 0
    # The defining difference: longest-first frees more KV per migration
    # (it deliberately moves the big allocations).
    assert longest["GB per migration"] > shortest["GB per migration"]
    # And WindServe's choice must not cost service quality.
    assert longest["tpot_p99 (s)"] <= 1.2 * shortest["tpot_p99 (s)"]
    assert longest["slo attainment"] >= 0.9 * shortest["slo attainment"]
    rendered = format_table(
        rows, title="Ablation - rescheduling victim policy (WindServe vs Llumnix-style)"
    )
    save_report(output_dir, "abl_reschedule_policy", rows, rendered)
