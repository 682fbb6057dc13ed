"""The extension comparisons: labelled cells and the fields of their rows.

The paper argues by running systems side by side on identical traces.  Each
comparison here is a map of labelled :class:`~repro.harness.cell.Cell` s
(every label's run shares the workload bytes of the cells it is compared
with) plus a function of one run, and of the runs before it, giving the
scalar fields its row reports.  The ``ext_differential``, ``ext_chaos``,
``ext_chaos_fleet``, ``ext_prefix``, ``ext_tenants`` and
``ext_hetero_fleet`` claims of :mod:`repro.harness.claims` run these cells,
keep every run to the shared invariant suite, and check the rows.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.harness.cell import Cell, CellRun, Workload
from repro.harness.invariants import prefix_caches
from repro.workloads.prefixes import PrefixMix

Runs = Sequence[CellRun]


def _mean(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _p99(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(0.99 * (len(ordered) - 1)))]


def _ttfts(run: CellRun, keep=lambda r: True) -> list[float]:
    return [r.ttft for r in run.metrics.completed if r.ttft is not None and keep(r)]


def _slo_met(run: CellRun) -> int:
    slo = run.cell.slo()
    return sum(1 for r in run.metrics.completed if slo.met_by(r))


# -- differential: every system on one identical workload per seed ---------------

SYSTEMS = ("windserve", "distserve", "vllm")


def differential_cells(base: Cell, seeds: Sequence[int]) -> dict[str, Cell]:
    return {
        f"s{seed}:{system}": replace(base, system=system, seed=seed)
        for seed in seeds
        for system in SYSTEMS
    }


DIFFERENTIAL_CELLS = differential_cells(Cell(), (0, 1, 2))


# -- chaos: fault plans on single systems, and on one fleet ----------------------


def chaos_cells(variant: str, base: Cell, systems: Sequence[str], plans: Sequence[str]):
    """Each system's fault-free ``none`` run, then one run per plan, on one workload."""
    return {
        f"{variant}:{system}/{plan}": replace(base, system=system, fault_plan=plan)
        for system in systems
        for plan in ("none", *plans)
    }


CHAOS_BASE = Cell(num_requests=60)
CHAOS_CELLS = {
    # crash -> detect -> re-queue -> recover, end to end.
    **chaos_cells("smoke", CHAOS_BASE, ("windserve",), ("decode-crash",)),
    **chaos_cells(
        "seed1", replace(CHAOS_BASE, seed=1), ("distserve",), ("prefill-crash", "decode-crash")
    ),
    **chaos_cells(
        "preemptive",
        replace(
            CHAOS_BASE,
            admission_policy="preemptive",
            tier_mix="interactive=0.5,standard=0.2,best_effort=0.3",
        ),
        ("windserve",),
        ("decode-crash",),
    ),
}

#: One member-crash cell with a warm standby: crash -> heartbeat detect ->
#: cross-node re-route -> standby promotion -> rejoin.
FLEET_CHAOS_BASE = Cell(num_requests=48, fleet_nodes=2, fleet_standby=1, fault_plan="member-crash")
FLEET_TIERS = "interactive=0.25,standard=0.5,best_effort=0.25"
FLEET_CHAOS_CELLS = {
    "smoke": FLEET_CHAOS_BASE,
    "span": replace(FLEET_CHAOS_BASE, fault_plan="nic-outage", fleet_span_nodes=True),
    "tiers": replace(FLEET_CHAOS_BASE, tier_mix=FLEET_TIERS),
    "tier-aware": replace(FLEET_CHAOS_BASE, tier_mix=FLEET_TIERS, fleet_policy="tier-aware"),
    # The heavy tenant's 0.8 share of the fleet's 48 req/s exceeds the 12/s
    # per-tenant gateway rate; the light tenant's 0.2 share does not.
    "rate-limit": replace(FLEET_CHAOS_BASE, tenant_mix="heavy=0.8,light=0.2", tenant_rate=12.0),
}

_RESILIENCE_COLUMNS = ("requests_requeued", "transfer_retries", "detection_latency_s")
_RESILIENCE_COLUMNS += ("downtime_s",)
_FLEET_COLUMNS = ("member_crashes", "member_detection_latency_s", "member_downtime_s")
_FLEET_COLUMNS += ("replacement_lag_s",)
_RATE_LIMITED = "tenant_rate_limited[tenant:"


def chaos_fields(run: CellRun, runs: Runs) -> dict:
    cell, metrics = run.cell, run.metrics
    resilience = metrics.resilience_summary()
    fields = {"plan": cell.fault_plan, "slo_attainment": metrics.slo_attainment(cell.slo())}
    if cell.is_fleet:
        fleet = run.target
        fleet_resilience = fleet.fleet_resilience_summary()
        limited = [
            key[len(_RATE_LIMITED) : -1]
            for key, n in sorted(metrics.counters.items())
            if key.startswith(_RATE_LIMITED) and n
        ]
        return {
            **fields,
            "members": len(fleet.members),
            "retried": fleet.retried,
            "cross_node_retries": fleet.cross_node_retries,
            **{k: fleet_resilience[k] for k in _FLEET_COLUMNS},
            "transfer_retries": resilience["transfer_retries"],
            "rate_limited_tenants": ",".join(limited) or None,
        }
    # A faulted run's SLO-met count against its fault-free twin's.
    healthy = [r for r in runs if r.cell == replace(cell, fault_plan="none")]
    goodput = None
    if cell.fault_plan != "none" and healthy and _slo_met(healthy[0]):
        goodput = _slo_met(run) / _slo_met(healthy[0])
    return {
        "system": cell.system,
        **fields,
        "goodput_vs_healthy": goodput,
        **{k: resilience[k] for k in _RESILIENCE_COLUMNS},
    }


# -- prefix: KV-locality-aware vs locality-blind routing ------------------------

#: 8 equally-likely 512-token prefixes + 20% unshared traffic.  With the
#: default per-member cache (4 x 512 tokens) no member can hold them all —
#: the regime where routing locality decides the outcome.
DEFAULT_PREFIX_MIX = PrefixMix.uniform(8, 512, none=0.2).spec_string()

PREFIX_ROUTERS = ("least-loaded", "prefix-affinity")
PREFIX_BASE = Cell(
    num_requests=160, fleet_nodes=2, prefix_mix=DEFAULT_PREFIX_MIX, prefix_cache_tokens=2048
)


def prefix_cells(base: Cell) -> dict[str, Cell]:
    return {router: replace(base, fleet_policy=router) for router in PREFIX_ROUTERS}


def prefix_fields(run: CellRun, runs: Runs) -> dict:
    counters = run.metrics.counters
    warm = _ttfts(run, lambda r: r.prefix_cached)
    cold = _ttfts(run, lambda r: r.prefix_hash and not r.prefix_cached)
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


# -- tenants: fair-share vs FIFO-within-tier under a noisy neighbour -------------

#: The heavy tenant's name in the generated mix and the synthetic burst.
HEAVY_TENANT = "heavy"
#: Heavy tenant's share of the base (pre-burst) arrival mix.
HEAVY_SHARE = 0.2
#: Synthetic burst size, request shape, start (fraction into the base span)
#: and spread (seconds).
BURST_REQUESTS, BURST_PROMPT_TOKENS, BURST_OUTPUT_TOKENS = 32, 1024, 64
BURST_START_FRAC, BURST_WINDOW = 0.25, 2.0
#: Light tenants sharing the system, and each one's WFQ weight.
LIGHT_TENANTS, LIGHT_WEIGHT = 2, 4.0

BASELINE_RUN, FAIRSHARE_RUN, FIFO_RUN = "baseline", "fair-share", "fifo"
TENANT_BASE = Cell(num_requests=80, tenant_max_inflight=8)


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


def burst_workload(cell: Cell) -> Workload:
    """``cell``'s own workload with the heavy tenant's burst merged in."""
    workload = cell.workload()
    rows = workload.rows + burst_rows(workload.rows, BURST_REQUESTS)
    return replace(workload, rows=sorted(rows, key=lambda row: (row["arrival"], row["id"])))


def tenant_cells(base: Cell) -> dict[str, Cell]:
    light = [f"light_{i}" for i in range(LIGHT_TENANTS)]
    share = (1.0 - HEAVY_SHARE) / len(light)
    mix = [f"{HEAVY_TENANT}={HEAVY_SHARE!r}"] + [f"{t}={share!r}" for t in light]
    fair = replace(
        base,
        admission_policy="fair-share",
        tenant_mix=",".join(mix),
        tenant_weights=",".join(f"{t}={LIGHT_WEIGHT!r}" for t in light),
    )
    # FIFO within each tier: no fair queueing and no per-tenant budgets.
    fifo = replace(fair, admission_policy="nested-caps", tenant_weights=None)
    fifo = replace(fifo, tenant_max_inflight=None)
    return {BASELINE_RUN: fair, FAIRSHARE_RUN: fair, FIFO_RUN: fifo}


def tenant_fields(run: CellRun, runs: Runs) -> dict:
    light = {r.tenant for r in run.submitted} - {HEAVY_TENANT}
    light_ttfts = _ttfts(run, lambda r: r.tenant in light)
    return {
        "admission": run.cell.admission_policy,
        "light_p99_ttft": _p99(light_ttfts),
        "light_mean_ttft": _mean(light_ttfts) or 0.0,
        "heavy_p99_ttft": _p99(_ttfts(run, lambda r: r.tenant == HEAVY_TENANT)),
        "budget_sheds": run.metrics.counters.get("tenant_budget_shed", 0),
    }


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
HETERO_BASE = Cell(
    num_requests=480,
    fleet_shape=DEFAULT_SHAPE,
    fleet_pairs_per_node=1,
    fault_plan="member-crash",
)


def hetero_cells(base: Cell) -> dict[str, Cell]:
    cells = {
        f"route:{router}": replace(base, fleet_policy=router, fault_plan=None)
        for router in HETERO_ROUTERS
    }
    for replan in (False, True):
        label = f"crash:{'replan' if replan else 'no-replan'}"
        cells[label] = replace(base, fleet_policy=HETERO_ROUTERS[-1], fleet_replan=replan)
    return cells


def hetero_fields(run: CellRun, runs: Runs) -> dict:
    fleet, met = run.target, _slo_met(run)
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
    }
