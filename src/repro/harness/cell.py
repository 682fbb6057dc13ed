"""One declared measurement cell: a serving target, its workload, its faults.

Every run the reproduction makes is a :class:`Cell`: a point of a paper
claim (:mod:`repro.harness.claims`), a ``repro run``/``sweep`` row, a
placement or capacity probe.  Every comparison — WindServe vs the baselines on an identical
trace, a system under a fault plan, prefix-affinity vs blind routing,
fair-share vs FIFO, a mixed-hardware fleet with and without re-planning,
and each golden-trace scenario — is a set of cells.  A cell knows how to
build its target (a single :class:`~repro.serving.system.ServingSystem`
or a WindServe fleet), how to generate its workload, and how to run it:
:meth:`Cell.run` clones the workload rows into fresh requests, arms the
fault plan, drains the target, fingerprints it and applies the shared
invariant suite (:func:`repro.harness.invariants.check_run`);
:meth:`CellRun.summary` reports its latency percentiles and SLO
attainment past the warm-up.

Cells with identical workload fields see byte-identical workloads; a
comparison may also hand several cells one explicit :class:`Workload`
(e.g. with synthetic rows appended).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Optional, Sequence

from repro.core.autoscaler import AutoscalerConfig, AutoscalingFleet
from repro.core.config import FleetShape, WindServeConfig
from repro.core.fleet import build_windserve_fleet
from repro.core.replan import FleetReplanner
from repro.faults import (
    FaultInjector,
    ResilienceConfig,
    build_fault_plan,
    build_fleet_fault_plan,
)
from repro.hardware.cluster import ClusterTopology
from repro.harness.runner import build_system, generate_workload, resolve_slo
from repro.harness.invariants import check_run, metrics_of, systems_of
from repro.models.registry import get_model
from repro.policies.fairshare import FairShareConfig, TenantRateLimiter
from repro.serving.instance import InstanceConfig
from repro.serving.metrics import SLO, MetricsCollector
from repro.serving.request import DEFAULT_TENANT, DEFAULT_TIER, Request
from repro.serving.system import SystemConfig
from repro.sim.fingerprint import RunFingerprint, canonical_json, digest_lines, request_row
from repro.sim.trace import TraceLog


#: Warm-standby promotion timing of a cell's autoscaled fleet (with
#: ``fleet_standby``): seconds to warm a standby up, and between load checks.
STANDBY_STARTUP_DELAY = 1.0
STANDBY_CHECK_INTERVAL = 0.5


@dataclass(frozen=True)
class Cell:
    """Every knob of one run; the defaults are the plain single-system run."""

    name: str = ""
    system: str = "windserve"
    model: str = "opt-13b"
    dataset: str = "sharegpt"
    rate_per_gpu: float = 3.0
    num_requests: int = 40
    seed: int = 0
    arrival_process: str = "poisson"
    burstiness_cv: float = 2.0
    # A shrunken KV pool forces the memory-pressure paths (swaps, recompute
    # preemptions, WindServe rescheduling).
    kv_override_tokens: Optional[int] = None
    decode_parallel: tuple[int, int] = (2, 1)
    # Single-system layout: prefill (tp, pp), the node's GPU count and its
    # device type (a ``repro.hardware.gpu.GPU_REGISTRY`` key).
    prefill_parallel: tuple[int, int] = (2, 1)
    num_node_gpus: int = 8
    gpu: str = "a800-80gb"
    # Single-system config overrides: the base instance config (the KV and
    # prefix-cache scalars apply on top of it when set), a decode-side
    # instance config, and the WindServe scheduler config.
    instance_config: Optional[InstanceConfig] = None
    decode_instance_config: Optional[InstanceConfig] = None
    ws_config: Optional[WindServeConfig] = None
    # Named fault plan (repro.faults.plan; a fleet plan for fleet cells).
    fault_plan: Optional[str] = None
    # SLO-tier mix spec and a tightened degraded-mode in-flight cap.
    tier_mix: Optional[str] = None
    shed_limit: Optional[int] = None
    # Fleet layout: ``fleet_nodes > 0`` (or a shape) runs a WindServe fleet
    # over a cluster instead of a single system.
    fleet_nodes: int = 0
    fleet_pairs_per_node: int = 2
    fleet_standby: int = 0
    fleet_span_nodes: bool = False
    # Fleet router; None is the round-robin baseline.
    fleet_policy: Optional[str] = None
    # Heterogeneous fleet-shape spec ("h100:2,a800:4") and the
    # failure-reactive re-planner.
    fleet_shape: Optional[str] = None
    fleet_replan: bool = False
    admission_policy: str = "nested-caps"
    # Shared-prefix population plus a per-instance warm-prefix KV budget.
    prefix_mix: Optional[str] = None
    prefix_cache_tokens: int = 0
    # Tenant population plus fair-share knobs (WFQ weights, in-flight budget).
    tenant_mix: Optional[str] = None
    tenant_weights: Optional[str] = None
    tenant_max_inflight: Optional[int] = None
    # Per-tenant gateway token bucket (submits/s); 0 disables it.
    tenant_rate: float = 0.0

    @property
    def is_fleet(self) -> bool:
        return bool(self.fleet_nodes or self.fleet_shape)

    def fairshare(self) -> Optional[FairShareConfig]:
        if self.tenant_weights is None and self.tenant_max_inflight is None:
            return None
        return FairShareConfig(
            weights=FairShareConfig.parse_weights(self.tenant_weights)
            if self.tenant_weights
            else (),
            max_inflight=self.tenant_max_inflight,
        )

    @property
    def gpus_used(self) -> int:
        """GPUs of the single-system layout (prefill plus decode)."""
        (ptp, ppp), (dtp, dpp) = self.prefill_parallel, self.decode_parallel
        return ptp * ppp + dtp * dpp

    def instance(self) -> InstanceConfig:
        """``instance_config`` (or the default) with the KV and prefix-cache scalars applied."""
        config = self.instance_config or InstanceConfig()
        if self.kv_override_tokens is not None:
            config = replace(
                config, kv_capacity_override_tokens=self.kv_override_tokens, cpu_swap_gb=16.0
            )
        if self.prefix_cache_tokens:
            config = replace(config, prefix_cache_tokens=self.prefix_cache_tokens)
        return config

    def resilience(self) -> Optional[ResilienceConfig]:
        if self.shed_limit is None:
            return None
        return ResilienceConfig(degraded_inflight_limit=self.shed_limit)

    def slo(self) -> SLO:
        return resolve_slo(self)

    def meta(self) -> dict:
        """Identifying fields (the golden header's ``scenario`` block).

        The workload and layout basics always appear; every other knob only
        when it differs from its default, so adding a knob never changes
        an existing recording.
        """
        meta = {}
        for f in fields(self):
            value = getattr(self, f.name)
            always = f.name in _ALWAYS_META or (f.name in _FLEET_META and self.fleet_nodes)
            if always or value != f.default:
                meta[f.name] = list(value) if isinstance(value, tuple) else value
        return meta

    def build(self):
        """The serving target: a single system, or a WindServe fleet."""
        if not self.is_fleet:
            return build_system(self)
        config = SystemConfig(
            model=get_model(self.model),
            instance=self.instance(),
            resilience=self.resilience() or ResilienceConfig(),
            admission_policy=self.admission_policy,
            fairshare=self.fairshare(),
        )
        fleet_factory = None
        if self.fleet_standby:
            autoscaler = AutoscalerConfig(
                startup_delay=STANDBY_STARTUP_DELAY, check_interval=STANDBY_CHECK_INTERVAL
            )

            def fleet_factory(members, policy):
                if not 0 < self.fleet_standby < len(members):
                    raise ValueError(
                        f"standby must leave at least one active member "
                        f"(fleet has {len(members)})"
                    )
                return AutoscalingFleet(
                    members,
                    policy=policy,
                    autoscaler=autoscaler,
                    initially_active=len(members) - self.fleet_standby,
                )

        shape = FleetShape.parse(self.fleet_shape) if self.fleet_shape else None
        fleet = build_windserve_fleet(
            config,
            None if shape else ClusterTopology(num_nodes=self.fleet_nodes, gpus_per_node=8),
            pairs_per_node=self.fleet_pairs_per_node,
            policy=self.fleet_policy or "round-robin",
            span_nodes=self.fleet_span_nodes,
            fleet_factory=fleet_factory,
            shape=shape,
        )
        if self.fleet_replan:
            fleet.replanner = FleetReplanner()
        if self.tenant_rate > 0:
            fleet.rate_limiter = TenantRateLimiter(rate=self.tenant_rate)
        return fleet

    def gpus(self, target=None) -> int:
        """GPUs the arrival rate scales with (builds a probe fleet if needed)."""
        if not self.is_fleet:
            return self.gpus_used
        return (target or self.build()).num_gpus

    def workload(self, gpus: Optional[int] = None) -> "Workload":
        gpus = gpus or self.gpus()
        trace = generate_workload(self, gpus)
        return Workload(workload_rows(trace), trace.rng_registry, gpus)

    def run(
        self, workload: Optional["Workload"] = None, trace_tags: Optional[frozenset[str]] = None
    ) -> "CellRun":
        """Run the cell to completion and check every invariant.

        ``workload`` defaults to the cell's own; ``trace_tags`` turns on a
        trace log keeping only those tags, shared by every component.
        """
        target = self.build()
        gpus = self.gpus(target)
        if workload is None:
            workload = self.workload(gpus)
        elif workload.gpus != gpus:
            raise ValueError(
                f"cell {self.name or self.system!r} uses {gpus} GPUs but its workload "
                f"was generated for {workload.gpus}; the shared rate would differ"
            )
        log = None
        if trace_tags is not None:
            log = TraceLog(enabled=True, tags=trace_tags)
            target.trace = log
            for system in systems_of(target):
                system.trace = system.transfers.trace = log
                for instance in system.instances:
                    instance.trace = log
        submitted = clone_requests(workload.rows)
        plan = None
        if self.fault_plan is not None:
            horizon = max(r.arrival_time for r in submitted)
            builder = build_fleet_fault_plan if self.is_fleet else build_fault_plan
            plan = builder(self.fault_plan, horizon, seed=self.seed)
            FaultInjector(target, plan).arm()
        target.run_to_completion(submitted)
        return CellRun(
            cell=self,
            target=target,
            submitted=submitted,
            metrics=metrics_of(target),
            fingerprint=target.run_fingerprint(workload.rng_registry),
            workload=workload,
            plan=plan,
            trace=log,
            violations=check_run(target, submitted, self.fairshare()),
        )


_ALWAYS_META = frozenset(
    ("name", "system", "model", "dataset", "rate_per_gpu", "num_requests", "seed")
    + ("arrival_process", "burstiness_cv", "kv_override_tokens", "decode_parallel")
)
_FLEET_META = frozenset(
    ("fleet_nodes", "fleet_pairs_per_node", "fleet_standby", "fleet_span_nodes")
)


@dataclass(frozen=True)
class Workload:
    """An arrival trace reduced to its defining rows (plus provenance)."""

    rows: list[dict]
    rng_registry: tuple[str, ...]
    gpus: int

    def digest(self) -> str:
        return digest_lines(canonical_json(row) for row in self.rows)


@dataclass
class CellRun:
    """What one :meth:`Cell.run` observed."""

    cell: Cell
    target: Any
    submitted: list[Request]
    metrics: MetricsCollector
    fingerprint: RunFingerprint
    workload: Optional[Workload] = None
    plan: Any = None
    trace: Optional[TraceLog] = None
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def rng_registry(self) -> tuple[str, ...]:
        return self.workload.rng_registry if self.workload else ()

    @property
    def event_rows(self) -> list[dict]:
        return self.trace.to_rows() if self.trace is not None else []

    def summary(self, warmup_fraction: float = 0.05) -> dict:
        """Headline latency and SLO numbers without the cold-start prefix."""
        return self.metrics.after_warmup(warmup_fraction).summary(self.cell.slo())

    @property
    def request_rows(self) -> list[dict]:
        return sorted((request_row(r) for r in self.metrics.completed), key=lambda r: r["id"])


def workload_rows(trace) -> list[dict]:
    """An arrival trace reduced to its defining bytes.

    Tier, prefix and tenant keys ride along only when a request carries a
    non-default value, so feature-free workload digests are unchanged.
    """
    rows = []
    for r in trace:
        row = {
            "id": r.request_id,
            "arrival": r.arrival_time,
            "prompt": r.prompt_tokens,
            "output": r.output_tokens,
        }
        if r.tier != DEFAULT_TIER:
            row["tier"] = r.tier
        if r.prefix_len:
            row["prefix_hash"] = r.prefix_hash
            row["prefix_len"] = r.prefix_len
        if r.tenant != DEFAULT_TENANT:
            row["tenant"] = r.tenant
        rows.append(row)
    return rows


def clone_requests(rows: Sequence[dict]) -> list[Request]:
    """Fresh, unmutated request objects for one run."""
    return [
        Request(
            request_id=row["id"],
            prompt_tokens=row["prompt"],
            output_tokens=row["output"],
            arrival_time=row["arrival"],
            tier=row.get("tier", DEFAULT_TIER),
            prefix_hash=row.get("prefix_hash", 0),
            prefix_len=row.get("prefix_len", 0),
            tenant=row.get("tenant", DEFAULT_TENANT),
        )
        for row in rows
    ]
