"""Command-line interface.

Run single experiments, rate sweeps, placement searches and the paper's
claims table without writing Python::

    python -m repro run --system windserve --model opt-13b --dataset sharegpt \
        --rate 4.0 --requests 500
    python -m repro run --rate 3 --requests 60 --fault-plan decode-crash
    python -m repro run --rate 3 --requests 48 --nodes 2 --standby 1 --fault-plan member-crash
    python -m repro sweep --systems windserve,distserve,vllm --rates 2,3,4,5
    python -m repro placement --model opt-13b --dataset sharegpt --rate 1.5
    python -m repro golden record
    python -m repro golden check
    python -m repro claims
    python -m repro claims ext_chaos ext_prefix
    python -m repro models
    python -m repro datasets

``run`` takes every flag that sets a :class:`~repro.harness.cell.Cell`
field; each is declared once, in :data:`CELL_FLAGS`, and parse-checked
there.  ``run`` exits 1 when its run breaks the shared invariant suite.
The side-by-side comparisons (differential, faults, prefix caching,
tenancy, mixed-hardware fleets) are the ``ext_*`` claims of
:mod:`repro.harness.claims`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.core.config import FleetShape
from repro.harness.cell import Cell, CellRun
from repro.harness.placement_search import search_placement
from repro.harness.report import format_table
from repro.harness.runner import SYSTEM_NAMES, generate_workload
from repro.models.registry import MODEL_REGISTRY
from repro.policies import ADMISSION_POLICIES, ROUTING_POLICIES
from repro.policies.fairshare import FairShareConfig
from repro.workloads.arrivals import TierMix
from repro.workloads.datasets import DATASET_REGISTRY
from repro.workloads.prefixes import PrefixMix
from repro.workloads.tenants import TenantMix


def _parse_parallel(value: str) -> tuple[int, int]:
    """Parse 'tp2pp1' / '2,1' / '2' into (tp, pp)."""
    value = value.lower().replace("tp", "").replace("pp", ",").strip(",")
    parts = [p for p in value.replace(" ", "").split(",") if p]
    if len(parts) == 1:
        return int(parts[0]), 1
    if len(parts) == 2:
        return int(parts[0]), int(parts[1])
    raise argparse.ArgumentTypeError(f"cannot parse parallelism {value!r}")


def _spec(parse: Callable[[str], object], help: str) -> dict:
    """Options for a spec-string flag: parse-checked, kept as text."""

    def check(text: str) -> str:
        try:
            parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text

    return dict(type=check, metavar="SPEC", help=help)


#: Cell field -> (flag, argparse options).  The flag's default comes from
#: :data:`RUN_BASE`.
CELL_FLAGS: dict[str, tuple[str, dict]] = {
    "model": ("--model", dict(choices=sorted(MODEL_REGISTRY))),
    "dataset": ("--dataset", dict(choices=sorted(DATASET_REGISTRY))),
    "rate_per_gpu": ("--rate", dict(type=float, help="per-GPU req/s")),
    "num_requests": ("--requests", dict(type=int)),
    "seed": ("--seed", dict(type=int)),
    "prefill_parallel": ("--prefill-parallel", dict(type=_parse_parallel, metavar="TPxPPy")),
    "decode_parallel": ("--decode-parallel", dict(type=_parse_parallel, metavar="TPxPPy")),
    "num_node_gpus": ("--node-gpus", dict(type=int)),
    "arrival_process": ("--arrivals", dict(choices=("poisson", "bursty"))),
    "burstiness_cv": ("--burstiness", dict(type=float)),
    "tier_mix": (
        "--tier-mix",
        _spec(
            TierMix.parse,
            "SLO-tier mix, e.g. 'interactive=0.2,standard=0.5,best_effort=0.3' "
            "(default: all requests in the standard tier)",
        ),
    ),
    "prefix_mix": (
        "--prefix-mix",
        _spec(
            PrefixMix.parse,
            "shared-prefix population, e.g. "
            "'none=0.25,assistant=0.5:384,fewshot=0.25:640' (name=weight:tokens)",
        ),
    ),
    "tenant_mix": (
        "--tenant-mix",
        _spec(
            TenantMix.parse,
            "tenant population, e.g. 'acme=0.6,beta=0.25,gamma=0.15' "
            "(default: all requests owned by the default tenant)",
        ),
    ),
    "tenant_weights": (
        "--tenant-weights",
        _spec(
            FairShareConfig.parse_weights,
            "WFQ weights for fair-share, e.g. 'acme=1,beta=4' "
            "(unlisted tenants get weight 1)",
        ),
    ),
    "tenant_max_inflight": (
        "--tenant-max-inflight",
        dict(type=int, help="per-tenant concurrent-request budget (fair-share admission)"),
    ),
    "admission_policy": (
        "--admission",
        dict(
            choices=ADMISSION_POLICIES.names(),
            help="admission policy (fair-share enables WFQ + the tenant budget)",
        ),
    ),
    "fleet_policy": (
        "--router",
        dict(choices=ROUTING_POLICIES.names(), help="fleet routing policy (default round-robin)"),
    ),
    "fleet_nodes": ("--nodes", dict(type=int, help="fleet cluster nodes")),
    "fleet_pairs_per_node": ("--pairs-per-node", dict(type=int)),
    "fleet_standby": (
        "--standby",
        dict(type=int, help="warm standby members (autoscaled fleet)"),
    ),
    "fleet_span_nodes": (
        "--span-nodes",
        dict(
            action="store_true",
            help="place each pair's decode on the next node (hand-offs cross NICs)",
        ),
    ),
    "fleet_shape": (
        "--shape",
        _spec(
            FleetShape.parse,
            "fleet shape spec, e.g. 'a800:2,h100' (per-member GPU type + parallelism)",
        ),
    ),
    "fault_plan": (
        "--fault-plan",
        dict(help="named fault plan (a fleet plan with --nodes or --shape)"),
    ),
    "prefix_cache_tokens": (
        "--cache-tokens",
        dict(type=int, help="warm-prefix KV budget per prefill instance (tokens)"),
    ),
    "tenant_rate": (
        "--tenant-rate",
        dict(
            type=float,
            help="per-tenant gateway rate limit in submits/s, burst max(1, rate) "
            "(fleets; 0 disables it)",
        ),
    ),
}


def _dest(field: str) -> str:
    return CELL_FLAGS[field][0].lstrip("-").replace("-", "_")


# -- single experiments ----------------------------------------------------------

#: The workload and single-system layout flags every run verb takes.
RUN_FLAGS = ("model", "dataset", "num_requests", "seed", "prefill_parallel", "num_node_gpus")
RUN_FLAGS += ("decode_parallel", "arrival_process", "burstiness_cv", "tier_mix", "prefix_mix")
TENANCY_FLAGS = (
    "tenant_mix",
    "tenant_weights",
    "tenant_max_inflight",
    "admission_policy",
)
RUN_BASE = Cell(num_requests=500)


def _add_run_args(parser: argparse.ArgumentParser, names: Sequence[str] = RUN_FLAGS) -> None:
    for name in names:
        flag, options = CELL_FLAGS[name]
        parser.add_argument(flag, default=getattr(RUN_BASE, name), **options)
    parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")


def _run_cell(args: argparse.Namespace, **fields) -> Cell:
    """:data:`RUN_BASE` with every cell flag the verb took, then ``fields``."""
    given = {name: getattr(args, _dest(name)) for name in CELL_FLAGS if hasattr(args, _dest(name))}
    return replace(RUN_BASE, **{**given, **fields})


def _run_row(cell: Cell) -> tuple[dict, CellRun]:
    """One run's table row (cell, summary, SLO) and the run."""
    run = cell.run()
    slo = cell.slo()
    row = {
        "system": cell.system,
        "model": cell.model,
        "dataset": cell.dataset,
        "rate_per_gpu": cell.rate_per_gpu,
        **run.summary(),
        "slo_ttft_s": slo.ttft,
        "slo_tpot_s": slo.tpot,
    }
    return row, run


def cmd_run(args: argparse.Namespace) -> int:
    """Run one cell; exit 1 when it breaks the invariant suite."""
    row, run = _run_row(_run_cell(args, system=args.system))
    counters = run.metrics.counters
    if args.json:
        print(json.dumps({"summary": row, "counters": counters}, indent=2))
    else:
        print(format_table([row], columns=list(row)[:12]))
        interesting = {k: v for k, v in counters.items() if v}
        if interesting:
            print("\ncounters:", ", ".join(f"{k}={v}" for k, v in sorted(interesting.items())))
    for violation in run.violations:
        print(f"[VIOLATED] {violation}", file=sys.stderr)
    return 1 if run.violations else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cell = _run_cell(args)
    rows = [
        _run_row(replace(cell, system=system, rate_per_gpu=rate))[0]
        for rate in args.rates
        for system in args.systems
    ]
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(
            format_table(
                rows,
                columns=[
                    "rate_per_gpu",
                    "system",
                    "ttft_p50",
                    "ttft_p99",
                    "tpot_p90",
                    "tpot_p99",
                    "slo_attainment",
                    "swap_events",
                ],
            )
        )
    return 0


def cmd_placement(args: argparse.Namespace) -> int:
    cell = _run_cell(args, system=args.system)
    scores = search_placement(
        cell.system,
        cell.model,
        cell.dataset,
        cell.rate_per_gpu,
        num_requests=cell.num_requests,
        num_node_gpus=cell.num_node_gpus,
        seed=cell.seed,
    )
    rows = [
        {
            "placement": s.label(),
            "gpus": s.gpus_used,
            "slo_attainment": s.slo_attainment,
            "goodput_per_gpu": s.goodput_per_gpu,
        }
        for s in scores
    ]
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(format_table(rows))
    return 0


def cmd_breakdown(args: argparse.Namespace) -> int:
    from repro.harness.breakdown import breakdown_rows
    from repro.harness.timeline import render_timeline

    cell = _run_cell(args, system=args.system)
    system = cell.build()
    # The timeline needs tracing; flip it on before any batch runs.
    system.trace.enabled = True
    for instance in system.instances:
        instance.trace = system.trace
    metrics = system.run_to_completion(generate_workload(cell))
    rows = breakdown_rows(metrics.completed, label=cell.system)
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    print(format_table(rows, precision=4))
    print()
    print(render_timeline(system, bins=60))
    return 0


def cmd_golden(args: argparse.Namespace) -> int:
    from repro.harness.golden import (
        PINS,
        check_goldens,
        record_goldens,
        render_migration_report,
        rerecord_goldens,
        validate_golden_store,
    )

    only = args.only or None
    if args.action == "list":
        for pin in PINS:
            print(pin.name)
        return 0
    if args.action == "record":
        for path in record_goldens(args.dir, only=only, reason=args.reason, tag=args.tag):
            print(f"recorded {path}")
        return 0
    if args.action == "rerecord":
        if not args.reason:
            print(
                "error: rerecord requires --reason (the provenance line reviewers read)",
                file=sys.stderr,
            )
            return 2
        outcomes = rerecord_goldens(args.dir, reason=args.reason, tag=args.tag, only=only)
        report = render_migration_report(outcomes)
        print(report)
        if args.report_out is not None:
            args.report_out.write_text(report + "\n")
            print(f"\nmigration report written to {args.report_out}")
        return 0
    if args.action == "validate":
        problems = validate_golden_store(args.dir, only=only)
        for problem in problems:
            print(f"PROVENANCE: {problem}")
        if problems:
            print(f"\n{len(problems)} problem(s) in the golden store")
            return 1
        count = len(only) if only else len(PINS)
        print(f"all {count} pin header(s) valid (format + digest + provenance chain)")
        return 0
    diffs = check_goldens(args.dir, only=only)
    for diff in diffs:
        print(diff.report())
    failed = sum(not d.passed for d in diffs)
    if failed:
        print(
            f"\n{failed}/{len(diffs)} pin(s) diverged. If the behaviour "
            "change is intentional, re-record with `python -m repro golden rerecord "
            "--reason ...` (see docs/determinism.md)."
        )
        return 1
    print(f"\nall {len(diffs)} pin(s) match")
    return 0


def cmd_claims(args: argparse.Namespace) -> int:
    """Print the rendered claims table; exit 1 when a check fails."""
    from repro.harness import claims

    results = claims.run_claims(args.ids)
    print(claims.render(results), end="")
    failed = claims.failures(results)
    for claim_id, verdict in failed:
        print(f"[FAILS] {claim_id}: {verdict.name}: {verdict.claim}", file=sys.stderr)
    return 1 if failed else 0


def cmd_models(args: argparse.Namespace) -> int:
    rows = [
        {
            "name": spec.name,
            "params_b": spec.total_params / 1e9,
            "layers": spec.num_layers,
            "hidden": spec.hidden_size,
            "heads": spec.num_heads,
            "kv_heads": spec.num_kv_heads,
            "context": spec.max_context,
            "kv_kib_per_token": spec.kv_bytes_per_token / 1024,
        }
        for spec in MODEL_REGISTRY.values()
    ]
    print(format_table(rows, precision=1))
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    rows = [
        {
            "name": d.name,
            "prompt avg/med/p90": "/".join(str(x) for x in d.prompt_stats),
            "output avg/med/p90": "/".join(str(x) for x in d.output_stats),
        }
        for d in DATASET_REGISTRY.values()
    ]
    print(format_table(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="WindServe reproduction experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one cell; exit 1 on an invariant violation")
    run_p.add_argument("--system", default="windserve", choices=SYSTEM_NAMES)
    run_p.add_argument("--rate", type=float, required=True, help="per-GPU req/s")
    _add_run_args(run_p, [name for name in CELL_FLAGS if name != "rate_per_gpu"])
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep request rates across systems")
    sweep_p.add_argument(
        "--systems",
        type=lambda s: [x.strip() for x in s.split(",")],
        default=["windserve", "distserve", "vllm"],
    )
    sweep_p.add_argument(
        "--rates",
        type=lambda s: [float(x) for x in s.split(",")],
        required=True,
        help="comma-separated per-GPU rates",
    )
    _add_run_args(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    place_p = sub.add_parser("placement", help="rank placements by simulation")
    place_p.add_argument("--system", default="distserve", choices=SYSTEM_NAMES)
    place_p.add_argument("--rate", type=float, required=True)
    _add_run_args(place_p)
    place_p.set_defaults(func=cmd_placement)

    breakdown_p = sub.add_parser(
        "breakdown", help="per-stage latency decomposition + activity timeline"
    )
    breakdown_p.add_argument("--system", default="windserve", choices=SYSTEM_NAMES)
    breakdown_p.add_argument("--rate", type=float, required=True)
    _add_run_args(breakdown_p, RUN_FLAGS + TENANCY_FLAGS)
    breakdown_p.set_defaults(func=cmd_breakdown)

    golden_p = sub.add_parser(
        "golden",
        help="record, rerecord (with provenance), check, or validate pinned outputs",
    )
    golden_p.add_argument("action", choices=("record", "rerecord", "check", "validate", "list"))
    golden_p.add_argument(
        "--dir",
        type=Path,
        default=Path("tests") / "golden",
        help="golden store directory (default tests/golden)",
    )
    golden_p.add_argument(
        "--only",
        action="append",
        metavar="PIN",
        help="restrict to a named pin (repeatable; see `golden list`)",
    )
    golden_p.add_argument(
        "--reason",
        help="why the store is being re-recorded (required for rerecord; "
        "stamped into each pin's provenance header)",
    )
    golden_p.add_argument(
        "--tag",
        help="date-free PR tag stamped into provenance (e.g. pr8-cost-model)",
    )
    golden_p.add_argument(
        "--report-out",
        type=Path,
        metavar="PATH",
        help="also write the rerecord migration report to this file",
    )
    golden_p.set_defaults(func=cmd_golden)

    claims_p = sub.add_parser(
        "claims",
        help="run the paper's claims table (or the named claims) and print RESULTS.md; "
        "exit 1 on a failed check, 2 on an unknown id",
    )
    claims_p.add_argument("ids", nargs="*", metavar="ID", help="claim ids (default: all)")
    claims_p.set_defaults(func=cmd_claims)

    models_p = sub.add_parser("models", help="list known model architectures")
    models_p.set_defaults(func=cmd_models)

    datasets_p = sub.add_parser("datasets", help="list workload profiles")
    datasets_p.set_defaults(func=cmd_datasets)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for system in getattr(args, "systems", []) or []:
        if system not in SYSTEM_NAMES:
            parser.error(f"unknown system {system!r}; known: {SYSTEM_NAMES}")
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
