"""Ablation: KV backups in the prefill instance (§3.3).

"To minimize migration overheads, the prefill instance dynamically backs up
the KV cache of some long-context requests...  These backups can reduce
migration costs when the backed-up requests are later rescheduled."
Measured: migration bulk bytes with and without backups, under decode
memory pressure.
"""

from __future__ import annotations

from conftest import save_report

from repro.core.config import WindServeConfig
from repro.harness.report import format_table
from repro.harness.cell import Cell
from repro.serving.instance import InstanceConfig


def run_backup_ablation():
    rows = []
    for label, enabled in (("backups-on", True), ("backups-off", False)):
        cell = Cell(
            system="windserve",
            model="opt-13b",
            dataset="sharegpt",
            rate_per_gpu=3.2,
            num_requests=400,
            seed=67,
            decode_parallel=(1, 1),
            decode_instance_config=InstanceConfig(kv_capacity_override_tokens=16384),
            ws_config=WindServeConfig(
                backup_enabled=enabled, backup_min_prompt_tokens=512
            ),
        )
        run = cell.run()
        system, metrics = run.target, run.metrics
        bulk_bytes = sum(
            job.nbytes
            for job in system.transfers.completed
            if job.kind == "migration-bulk"
        )
        completed_migrations = metrics.counters.get("reschedule_completed", 0)
        rows.append(
            {
                "config": label,
                "migrations": completed_migrations,
                "bulk GB moved": bulk_bytes / 1024**3,
                "bulk GB per migration": (
                    bulk_bytes / 1024**3 / completed_migrations
                    if completed_migrations
                    else 0.0
                ),
                "backups kept": metrics.counters.get("backup_kept", 0),
                "tpot_p99 (s)": metrics.tpot_stats().p99,
                "slo attainment": metrics.slo_attainment(cell.slo()),
            }
        )
    return rows


def test_ablation_backups(benchmark, output_dir):
    rows = benchmark.pedantic(run_backup_ablation, rounds=1, iterations=1)
    on = next(r for r in rows if r["config"] == "backups-on")
    off = next(r for r in rows if r["config"] == "backups-off")
    assert on["backups kept"] > 0
    assert off["backups kept"] == 0
    if on["migrations"] and off["migrations"]:
        # A backed-up request's bulk leg shrinks by its prompt's KV.
        assert on["bulk GB per migration"] < off["bulk GB per migration"]
    rendered = format_table(rows, title="Ablation - KV backups reduce migration volume (§3.3)")
    save_report(output_dir, "abl_backup", rows, rendered)
