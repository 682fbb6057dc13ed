"""Comparisons declared as labelled :class:`~repro.harness.cell.Cell` sets.

The paper argues by running systems side by side on identical traces.  An
:class:`Experiment` declares one such comparison: a map of labelled cells
derived from a base cell, an optional per-label row transform (e.g. a
synthetic burst), extra per-run report fields, and named :class:`Verdict`
predicates over the label -> :class:`~repro.harness.cell.CellRun` map.
Every run also keeps the shared invariant suite; a report passes only when
every run is clean and every verdict holds.

The five declarations below are also the ``differential``, ``chaos``,
``prefix``, ``tenants`` and ``hetero`` CLI verbs (see :mod:`repro.cli`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.harness.cell import Cell, CellRun
from repro.harness.slo import tier_slos
from repro.harness.invariants import prefix_caches
from repro.workloads.prefixes import PrefixMix

Runs = Mapping[str, CellRun]


def _csv(text: str) -> list[str]:
    return [x.strip() for x in text.split(",")]


def _csv_ints(text: str) -> list[int]:
    return [int(x) for x in _csv(text)]


@dataclass(frozen=True)
class Param:
    """A comparison-level knob that is not a cell field (a CLI flag too)."""

    flag: str
    default: Any = None
    help: str = ""
    type: Optional[Callable[[str], Any]] = None

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


SMOKE = Param("--smoke", False, "fast deterministic CI cell")
OUT = Param("--out", None, "write the JSON report here")

#: Cell-field flag groups shared by the verbs (see ``repro.cli.CELL_FLAGS``).
WORKLOAD_FLAGS = ("model", "dataset", "rate_per_gpu", "num_requests", "seed")
TRACE_FLAGS = ("decode_parallel", "arrival_process", "burstiness_cv", "tier_mix", "prefix_mix")
TENANCY_FLAGS = (
    "tenant_mix",
    "tenant_weights",
    "tenant_max_inflight",
    "tenant_max_tokens",
    "admission_policy",
)


@dataclass(frozen=True)
class Verdict:
    """A named claim over evidence; missing evidence means it fails.

    The evidence is a comparison's label -> run map here, or a claim's
    rows in :mod:`repro.harness.claims`.
    """

    name: str
    claim: str
    holds: Callable[[Any, Mapping[str, Any]], bool]

    def check(self, evidence: Any, params: Mapping[str, Any]) -> bool:
        try:
            return bool(self.holds(evidence, params))
        except KeyError:
            return False


@dataclass
class Report:
    """Every labelled run of one comparison plus its verdicts."""

    name: str
    runs: dict[str, CellRun]
    verdicts: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(run.passed for run in self.runs.values()) and all(self.verdicts.values())

    def as_dict(self) -> dict:
        return {
            "cells": {label: run.cell.meta() for label, run in self.runs.items()},
            "runs": {
                label: {
                    **run.fields,
                    "fingerprint": run.fingerprint.value,
                    "violations": run.violations,
                }
                for label, run in self.runs.items()
            },
            **self.verdicts,
            "passed": self.passed,
        }

    def rows(self) -> list[dict]:
        """Scalar per-run fields for a table."""
        return [
            {
                "run": label,
                **{k: v for k, v in run.fields.items() if not isinstance(v, (dict, list))},
                "workload": run.fields["workload"][:12],
                "fingerprint": run.fingerprint.value[:12],
                "invariants": "ok" if run.passed else "VIOLATED",
            }
            for label, run in self.runs.items()
        ]


@dataclass(frozen=True)
class Experiment:
    """One comparison: labelled cells over a base cell, fields, verdicts."""

    name: str
    help: str
    base: Cell
    #: Cell fields exposed as command-line flags (defaults from ``base``).
    flags: tuple[str, ...]
    cells: Callable[[Cell, Mapping[str, Any]], dict[str, Cell]]
    params: tuple[Param, ...] = ()
    #: ``--smoke`` shrinks the base cell to a CI-sized point and returns the
    #: params it fills in where the caller passed none.
    smoke: Optional[Callable[[Cell, dict], tuple[Cell, dict]]] = None
    #: Per-label rewrite of the workload rows (same bytes in, same out).
    rows: Optional[Callable[[str, list[dict], Mapping[str, Any]], list[dict]]] = None
    fields: Callable[[CellRun, Runs], dict] = lambda run, runs: {}
    verdicts: tuple[Verdict, ...] = ()

    def run(self, base: Optional[Cell] = None, **params) -> Report:
        known = {p.dest: p.default for p in self.params}
        unknown = set(params) - set(known)
        if unknown:
            raise TypeError(f"{self.name}: unknown parameter(s) {sorted(unknown)}")
        given, params = params, {**known, **params}
        base = base or self.base
        if self.smoke is not None and params.get("smoke"):
            base, fills = self.smoke(base, params)
            params = {**params, **fills, **given}
        runs: dict[str, CellRun] = {}
        for label, cell in self.cells(base, params).items():
            workload = None
            if self.rows is not None:
                workload = cell.workload()
                workload = replace(workload, rows=self.rows(label, workload.rows, params))
            run = cell.run(workload)
            run.fields = {
                "submitted": len(run.submitted),
                "completed": len(run.metrics.completed),
                "shed": len(run.metrics.shed),
                **self.fields(run, runs),
                "workload": run.workload.digest(),
            }
            runs[label] = run
        verdicts = {v.name: v.check(runs, params) for v in self.verdicts}
        return Report(self.name, runs, verdicts)


# -- shared run measurements ---------------------------------------------------


def _mean(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _p99(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(0.99 * (len(ordered) - 1)))]


def _ttfts(run: CellRun, keep=lambda r: True) -> list[float]:
    return [r.ttft for r in run.metrics.completed if r.ttft is not None and keep(r)]


def completion_curve(completed, horizon: float, bins: int = 20) -> list[tuple[float, int]]:
    """Cumulative completions sampled at ``bins`` points across the run."""
    if horizon <= 0 or not completed:
        return []
    finishes = np.sort(
        np.asarray([r.finish_time for r in completed if r.finish_time is not None])
    )
    edges = np.linspace(horizon / bins, horizon, bins)
    counts = np.searchsorted(finishes, edges, side="right")
    return [(float(t), int(n)) for t, n in zip(edges, counts)]


# -- differential: every system on one identical workload -----------------------

SYSTEMS = Param("--systems", ["windserve", "distserve", "vllm"], type=_csv)

DIFFERENTIAL = Experiment(
    name="differential",
    help="run all systems on one identical workload and assert shared invariants",
    base=Cell(),
    flags=WORKLOAD_FLAGS[:4] + TRACE_FLAGS,
    params=(
        SYSTEMS,
        Param(
            "--seeds",
            [0, 1, 2],
            "comma-separated seeds, one differential run each",
            _csv_ints,
        ),
    ),
    cells=lambda base, p: {
        f"s{seed}:{system}": replace(base, system=system, seed=seed)
        for seed in p["seeds"]
        for system in p["systems"]
    },
)


# -- chaos: fault plans x systems (or one fleet) -------------------------------

DEFAULT_CHAOS_PLANS = ("decode-crash", "link-degrade", "straggler")
DEFAULT_FLEET_CHAOS_PLANS = ("member-crash", "node-crash", "nic-outage")

_RESILIENCE_COLUMNS = ("requests_requeued", "transfer_retries", "detection_latency_s")
_RESILIENCE_COLUMNS += ("downtime_s",)
_FLEET_COLUMNS = ("member_crashes", "member_detection_latency_s", "member_downtime_s")
_FLEET_COLUMNS += ("replacement_lag_s",)


def _chaos_cells(base: Cell, p) -> dict[str, Cell]:
    from repro.faults import FAULT_PLAN_NAMES, FLEET_FAULT_PLAN_NAMES

    if p["fleet"]:
        plans, known = p["plans"] or DEFAULT_FLEET_CHAOS_PLANS, FLEET_FAULT_PLAN_NAMES
    else:
        plans, known = p["plans"] or DEFAULT_CHAOS_PLANS, FAULT_PLAN_NAMES
    unknown = [plan for plan in plans if plan not in known]
    if unknown:
        kind = "fleet fault plan" if p["fleet"] else "fault plan"
        raise ValueError(f"unknown {kind}(s) {unknown}; known: {known}")
    if p["fleet"]:
        return {plan: replace(base, fault_plan=plan) for plan in plans}
    # Each system first runs the fault-free "none" plan on the same workload,
    # anchoring goodput_vs_healthy for its faulted runs.
    single = replace(base, fleet_nodes=0)
    return {
        f"{system}/{plan}": replace(single, system=system, fault_plan=plan)
        for system in p["systems"]
        for plan in ("none", *(x for x in plans if x != "none"))
    }


def _chaos_smoke(base: Cell, p: dict) -> tuple[Cell, dict]:
    if p["fleet"]:
        # One member-crash cell with a warm standby: crash -> heartbeat
        # detect -> cross-node re-route -> standby promotion -> rejoin.
        base = replace(
            base,
            num_requests=min(base.num_requests, 48),
            fleet_nodes=2,
            fleet_pairs_per_node=2,
            fleet_standby=1,
        )
        return base, {"plans": ["member-crash"]}
    # crash -> detect -> re-queue -> recover, end to end.
    base = replace(base, num_requests=min(base.num_requests, 60))
    return base, {"systems": ["windserve"], "plans": ["decode-crash"]}


def _chaos_fields(run: CellRun, runs: Runs) -> dict:
    cell, metrics, slo = run.cell, run.metrics, run.cell.slo()
    resilience = metrics.resilience_summary()
    fields = {"plan": cell.fault_plan, "slo_attainment": metrics.slo_attainment(slo)}
    if cell.is_fleet:
        fleet = run.target
        fleet_resilience = fleet.fleet_resilience_summary()
        fields.update(
            members=len(fleet.members),
            retried=fleet.retried,
            cross_node_retries=fleet.cross_node_retries,
            **{k: fleet_resilience[k] for k in _FLEET_COLUMNS},
            transfer_retries=resilience["transfer_retries"],
            fleet_resilience=fleet_resilience,
        )
    else:
        healthy = runs.get(f"{cell.system}/none")
        goodput = None
        if healthy is not None and len(healthy.metrics.completed):
            met = sum(slo.met_by(r) for r in metrics.completed)
            goodput = met / len(healthy.metrics.completed)
        fields = {"system": cell.system, **fields, "goodput_vs_healthy": goodput}
        fields.update({k: resilience[k] for k in _RESILIENCE_COLUMNS})
        fields["completion_curve"] = completion_curve(metrics.completed, metrics.horizon)
    fields.update(
        resilience=resilience,
        plan_events=run.plan.describe(),
        tier_report=metrics.tier_report(tier_slos(slo)),
    )
    return fields


CHAOS = Experiment(
    name="chaos",
    help="inject fault plans and measure degraded-mode behaviour",
    base=Cell(num_requests=120, fleet_nodes=2),
    flags=WORKLOAD_FLAGS
    + TRACE_FLAGS
    + TENANCY_FLAGS
    + ("fleet_nodes", "fleet_pairs_per_node", "fleet_standby", "fleet_span_nodes")
    + ("fleet_policy", "tenant_rate", "tenant_burst"),
    params=(
        SYSTEMS,
        Param(
            "--plans",
            None,
            "comma-separated fault plans (FAULT_PLAN_NAMES, or "
            "FLEET_FAULT_PLAN_NAMES with --fleet)",
            _csv,
        ),
        SMOKE,
        Param(
            "--fleet",
            False,
            "run fleet-scope plans (member/node/NIC faults) against a "
            "WindServe fleet over a multi-node cluster",
        ),
    ),
    cells=_chaos_cells,
    smoke=_chaos_smoke,
    fields=_chaos_fields,
)


# -- prefix: KV-locality-aware vs locality-blind routing ------------------------

#: 8 equally-likely 512-token prefixes + 20% unshared traffic.  With the
#: default per-member cache (4 x 512 tokens) no member can hold them all —
#: the regime where routing locality decides the outcome.
DEFAULT_PREFIX_MIX = PrefixMix.uniform(8, 512, none=0.2).spec_string()

PREFIX_ROUTERS = ("least-loaded", "prefix-affinity")


def _prefix_fields(run: CellRun, runs: Runs) -> dict:
    counters = run.metrics.counters
    warm = _ttfts(run, lambda r: r.extra.get("prefix_cached", 0) > 0)
    cold = _ttfts(run, lambda r: r.prefix_hash and r.extra.get("prefix_cached", 0) == 0)
    hits, misses = counters.get("prefix_hits", 0), counters.get("prefix_misses", 0)
    return {
        "router": run.cell.fleet_policy,
        "mean_ttft": _mean(_ttfts(run)) or 0.0,
        "warm_ttft": _mean(warm),
        "cold_ttft": _mean(cold),
        "warm_requests": len(warm),
        "cold_requests": len(cold),
        "prefix_hits": hits,
        "prefix_misses": misses,
        "prefix_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "prefix_tokens_saved": counters.get("prefix_tokens_saved", 0),
        "prefix_bytes_saved": sum(c.bytes_saved() for c in prefix_caches(run.target)),
        "prefill_tokens_computed": counters.get("prefill_tokens_computed", 0),
    }


def _warm_beats_cold(runs: Runs, p) -> bool:
    return all(
        run.fields["warm_ttft"] is not None
        and run.fields["cold_ttft"] is not None
        and run.fields["warm_ttft"] < run.fields["cold_ttft"]
        for run in runs.values()
    )


def _affinity_beats_blind(runs: Runs, p) -> bool:
    blind, affine = runs["least-loaded"].fields, runs["prefix-affinity"].fields
    return (
        affine["mean_ttft"] < blind["mean_ttft"]
        and affine["prefill_tokens_computed"] < blind["prefill_tokens_computed"]
    )


PREFIX = Experiment(
    name="prefix",
    help="compare prefix-affinity vs locality-blind routing on a shared-prefix workload",
    base=Cell(
        num_requests=240, fleet_nodes=2, prefix_mix=DEFAULT_PREFIX_MIX, prefix_cache_tokens=2048
    ),
    flags=WORKLOAD_FLAGS
    + ("fleet_nodes", "fleet_pairs_per_node", "prefix_cache_tokens", "prefix_mix"),
    params=(SMOKE, OUT),
    cells=lambda base, p: {r: replace(base, fleet_policy=r) for r in PREFIX_ROUTERS},
    smoke=lambda base, p: (replace(base, num_requests=min(base.num_requests, 160)), {}),
    fields=_prefix_fields,
    verdicts=(
        Verdict(
            "warm_beats_cold",
            "prefix-hit requests see lower mean TTFT than cold shared-prefix ones in every run",
            _warm_beats_cold,
        ),
        Verdict(
            "affinity_beats_blind",
            "prefix-affinity beats least-loaded on mean TTFT and total prefill tokens",
            _affinity_beats_blind,
        ),
    ),
)


# -- tenants: fair-share vs FIFO-within-tier under a noisy neighbour -------------

#: The heavy tenant's name in the generated mix and the synthetic burst.
HEAVY_TENANT = "heavy"
#: Heavy tenant's share of the base (pre-burst) arrival mix.
HEAVY_SHARE = 0.2
#: Synthetic burst request shape, start (fraction into the base span) and
#: spread (seconds).
BURST_PROMPT_TOKENS, BURST_OUTPUT_TOKENS = 1024, 64
BURST_START_FRAC, BURST_WINDOW = 0.25, 2.0

BASELINE_RUN, FAIRSHARE_RUN, FIFO_RUN = "baseline", "fair-share", "fifo"


def burst_rows(base_rows: list[dict], burst_requests: int) -> list[dict]:
    """Synthetic heavy-tenant burst rows riding on top of the base trace.

    Purely arithmetic (no RNG): ``burst_requests`` arrivals spread evenly
    over ``BURST_WINDOW`` seconds starting ``BURST_START_FRAC`` into the
    base workload's span, each a large prompt owned by the heavy tenant.
    """
    if not base_rows:
        return []
    next_id = max(row["id"] for row in base_rows) + 1
    start = BURST_START_FRAC * max(row["arrival"] for row in base_rows)
    step = BURST_WINDOW / max(1, burst_requests)
    return [
        {
            "id": next_id + i,
            "arrival": start + i * step,
            "prompt": BURST_PROMPT_TOKENS,
            "output": BURST_OUTPUT_TOKENS,
            "tenant": HEAVY_TENANT,
        }
        for i in range(burst_requests)
    ]


def _tenant_cells(base: Cell, p) -> dict[str, Cell]:
    if p["light_tenants"] < 1:
        raise ValueError("need at least one light tenant")
    if not p["bound"] >= 1:
        raise ValueError("isolation bound must be >= 1")
    light = [f"light_{i}" for i in range(p["light_tenants"])]
    share = (1.0 - HEAVY_SHARE) / len(light)
    mix = [f"{HEAVY_TENANT}={HEAVY_SHARE!r}"] + [f"{t}={share!r}" for t in light]
    fair = replace(
        base,
        admission_policy="fair-share",
        tenant_mix=",".join(mix),
        tenant_weights=",".join(f"{t}={p['light_weight']!r}" for t in light),
    )
    # FIFO within each tier: no fair queueing and no per-tenant budgets.
    fifo = replace(fair, admission_policy="nested-caps", tenant_weights=None)
    fifo = replace(fifo, tenant_max_inflight=None)
    return {BASELINE_RUN: fair, FAIRSHARE_RUN: fair, FIFO_RUN: fifo}


def _with_burst(label: str, rows: list[dict], p) -> list[dict]:
    if label == BASELINE_RUN:
        return rows
    burst = burst_rows(rows, p["burst_requests"])
    return sorted(rows + burst, key=lambda row: (row["arrival"], row["id"]))


def _tenant_fields(run: CellRun, runs: Runs) -> dict:
    counters = run.metrics.counters
    light = {r.tenant for r in run.submitted} - {HEAVY_TENANT}
    light_ttfts = _ttfts(run, lambda r: r.tenant in light)
    return {
        "admission": run.cell.admission_policy,
        "light_p99_ttft": _p99(light_ttfts),
        "light_mean_ttft": _mean(light_ttfts) or 0.0,
        "heavy_p99_ttft": _p99(_ttfts(run, lambda r: r.tenant == HEAVY_TENANT)),
        "budget_sheds": counters.get("tenant_budget_shed", 0),
        "peak_inflight": {
            k: v for k, v in sorted(counters.items()) if k.startswith("tenant_peak_inflight[")
        },
        "tenant_report": run.metrics.tenant_report(tier_slos(run.cell.slo())),
    }


def _light_p99(runs: Runs, label: str) -> float:
    return runs[label].fields["light_p99_ttft"]


def _bounded(runs: Runs, p, label: str) -> bool:
    base = _light_p99(runs, BASELINE_RUN)
    if not base > 0:
        raise KeyError(BASELINE_RUN)  # no baseline to bound against
    return _light_p99(runs, label) <= p["bound"] * base


TENANTS = Experiment(
    name="tenants",
    help="compare fair-share vs FIFO-within-tier isolation under a heavy-tenant burst",
    base=Cell(num_requests=160, tenant_max_inflight=8),
    flags=WORKLOAD_FLAGS + ("tenant_max_inflight",),
    params=(
        Param("--light-tenants", 2, "light tenants sharing the system", int),
        Param("--light-weight", 4.0, "WFQ weight per light tenant", float),
        Param("--burst-requests", 48, "heavy-tenant burst size", int),
        Param(
            "--bound",
            1.5,
            "isolation bound: max light P99 TTFT degradation vs no-burst baseline",
            float,
        ),
        SMOKE,
        OUT,
    ),
    cells=_tenant_cells,
    smoke=lambda base, p: (
        replace(base, num_requests=min(base.num_requests, 80)),
        {"burst_requests": 32},
    ),
    rows=_with_burst,
    fields=_tenant_fields,
    verdicts=(
        Verdict(
            "isolation_holds",
            "under fair-share the burst keeps light P99 TTFT within the bound",
            lambda runs, p: _bounded(runs, p, FAIRSHARE_RUN),
        ),
        Verdict(
            "fifo_violates",
            "FIFO-within-tier breaks the same bound on the same bytes",
            lambda runs, p: not _bounded(runs, p, FIFO_RUN),
        ),
        Verdict(
            "fairshare_beats_fifo",
            "fair-share beats FIFO on light P99 TTFT",
            lambda runs, p: _light_p99(runs, FAIRSHARE_RUN) < _light_p99(runs, FIFO_RUN),
        ),
    ),
)


# -- hetero: seconds-based routing and failure re-planning on mixed hardware -----

#: Mixed shape whose member 1 — the ``member-crash`` plan's target — is
#: the fast (H100) member.  The A800 members run deliberately narrow
#: (TP-1, PP-1 per phase: 2 GPUs each), so with one pair per node each
#: home node keeps six spare GPUs and the re-planner can widen a survivor
#: four-fold (2 -> 8 GPUs).
DEFAULT_SHAPE = "a800:1:1x1+1x1,h100:1:2x1+2x1,a800:1:1x1+1x1"

#: Routing arm: (baseline, challenger); the re-planning arm runs under the
#: challenger.
HETERO_ROUTERS = ("least-loaded", "predicted-ttft")


def _hetero_cells(base: Cell, p) -> dict[str, Cell]:
    cells = {
        f"route:{router}": replace(base, fleet_policy=router, fault_plan=None)
        for router in HETERO_ROUTERS
    }
    for replan in (False, True):
        label = f"crash:{'replan' if replan else 'no-replan'}"
        cells[label] = replace(base, fleet_policy=HETERO_ROUTERS[-1], fleet_replan=replan)
    return cells


def _hetero_fields(run: CellRun, runs: Runs) -> dict:
    fleet, slo = run.target, run.cell.slo()
    met = sum(1 for r in run.metrics.completed if slo.met_by(r))
    return {
        "router": run.cell.fleet_policy,
        "fault_plan": run.cell.fault_plan,
        "replan": run.cell.fleet_replan,
        "retried": fleet.retried,
        "mean_ttft": _mean(_ttfts(run)) or 0.0,
        "slo_attainment": met / len(run.submitted) if run.submitted else 0.0,
        "slo_goodput": met,
        "members_replanned": fleet.replanned_members,
        "replan_requeues": fleet.replan_requeues,
        "replans": list(fleet.replanner.replans) if fleet.replanner is not None else [],
    }


HETERO = Experiment(
    name="hetero",
    help="heterogeneous-fleet differentials: seconds-based routing vs "
    "count-based, and failure-reactive re-planning vs running degraded",
    base=Cell(
        num_requests=480,
        fleet_shape=DEFAULT_SHAPE,
        fleet_pairs_per_node=1,
        fault_plan="member-crash",
    ),
    flags=WORKLOAD_FLAGS + ("fleet_shape", "fleet_pairs_per_node", "fault_plan"),
    params=(SMOKE, OUT),
    cells=_hetero_cells,
    smoke=lambda base, p: (replace(base, num_requests=min(base.num_requests, 480)), {}),
    fields=_hetero_fields,
    verdicts=(
        Verdict(
            "routing_wins",
            "predicted-ttft beats least-loaded on mean TTFT on the mixed fleet",
            lambda runs, p: runs["route:predicted-ttft"].fields["mean_ttft"]
            < runs["route:least-loaded"].fields["mean_ttft"],
        ),
        Verdict(
            "replan_fired",
            "the replan arm re-planned at least one member",
            lambda runs, p: runs["crash:replan"].fields["members_replanned"] >= 1,
        ),
        Verdict(
            "replan_recovers",
            "re-planning recovers at least the degraded run's SLO goodput",
            lambda runs, p: runs["crash:replan"].fields["members_replanned"] > 0
            and runs["crash:replan"].fields["slo_goodput"]
            >= runs["crash:no-replan"].fields["slo_goodput"],
        ),
    ),
)

EXPERIMENTS: tuple[Experiment, ...] = (DIFFERENTIAL, CHAOS, PREFIX, TENANTS, HETERO)
