"""Serving-system base: wires the simulator, topology, transfers, metrics.

A :class:`ServingSystem` owns one or more :class:`~repro.serving.instance.
Instance` objects and routes requests to them.  Subclasses (the DistServe
and vLLM baselines, and WindServe itself) define the routing and
coordination policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from repro.faults.config import ResilienceConfig
from repro.hardware.gpu import GPUSpec, A800_80GB
from repro.hardware.topology import NodeTopology
from repro.kvcache.transfer import KVTransferEngine, TransferJob
from repro.models.spec import ModelSpec
from repro.policies.admission import ADMISSION_POLICIES
from repro.policies.base import FINGERPRINT_BASELINES, policy_identity
from repro.policies.fairshare import FairShareConfig
from repro.serving.instance import Instance, InstanceConfig
from repro.serving.metrics import SLO, MetricsCollector
from repro.serving.request import (
    DEFAULT_TENANT,
    DEFAULT_TIER,
    Phase,
    Request,
    arrival_time,
    tier_ordered,
)
from repro.sim.engine import Simulator
from repro.sim.fingerprint import RunFingerprint, fingerprint_run
from repro.sim.trace import TraceLog


@dataclass
class SystemConfig:
    """Common configuration for any serving system."""

    model: ModelSpec
    gpu: GPUSpec = A800_80GB
    slo: Optional[SLO] = None
    instance: InstanceConfig = field(default_factory=InstanceConfig)
    decode_instance: Optional[InstanceConfig] = None  # falls back to `instance`
    trace_enabled: bool = False
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    # Degraded-mode admission policy name (see repro.policies.admission).
    admission_policy: str = "nested-caps"
    # Fair-share discipline knobs (WFQ weights, per-tenant in-flight
    # budget); only consulted by the ``fair-share`` admission policy.
    fairshare: Optional[FairShareConfig] = None

    @property
    def decode_instance_config(self) -> InstanceConfig:
        return self.decode_instance if self.decode_instance is not None else self.instance


class ServingSystem:
    """Base class for simulated LLM serving systems."""

    name = "base"

    def __init__(
        self,
        config: SystemConfig,
        topology: Optional[NodeTopology] = None,
        sim: Optional[Simulator] = None,
    ) -> None:
        self.config = config
        self.sim = sim or Simulator()
        self.topology = topology or NodeTopology(gpu=config.gpu)
        self.metrics = MetricsCollector()
        self.trace = TraceLog(enabled=config.trace_enabled)
        self.transfers = KVTransferEngine(
            self.sim, self.topology, metrics=self.metrics, trace=self.trace
        )
        self.transfers.on_failure = self.on_transfer_failed
        self.admission = ADMISSION_POLICIES.create(config.admission_policy)
        # Callables invoked with each retired request (fleet routers
        # subscribe here to observe completions without subclassing).
        self.finish_listeners: list = []
        self.instances: list[Instance] = []
        self.submitted = 0
        # In-flight ledgers, charged at arrival and released at finish /
        # shed / forget — O(1) per request, so always-on costs nothing.
        # Per tier: requests backing the nested degraded-mode caps and the
        # tier-aware router.  Per tenant: (count, prompt+output tokens)
        # backing the fair-share budgets.
        self._tier_inflight: dict[str, int] = {}
        self._tenant_inflight: dict[str, int] = {}
        self._tenant_tokens: dict[str, int] = {}
        self.finish_listeners.append(self._release_usage)
        self.halted = False
        # Scheduler-visible failure knowledge (filled at heartbeat
        # detection, cleared at recovery) — distinct from the ground-truth
        # ``Instance.failed`` flag.
        self.known_failed: set[str] = set()
        # Requests orphaned by a crash, held until the failure is detected.
        self._orphans: dict[str, list[Request]] = {}
        # Bumped by whole-system ``crash()`` (fleet-scope faults).  Deferred
        # transfer callbacks capture it at launch and go inert if the system
        # crashed in between — after a member crash the *fleet* re-owns every
        # in-flight request, so a stale callback must never re-queue one
        # locally (the request may already be running on another member).
        self.crash_epoch = 0

    # -- wiring -------------------------------------------------------------

    def register(self, instance: Instance) -> Instance:
        instance.system = self
        self.instances.append(instance)
        return instance

    @property
    def num_gpus(self) -> int:
        return sum(len(inst.gpus) for inst in self.instances)

    # -- request flow ----------------------------------------------------------

    def submit(self, request: Request) -> None:
        """Route a newly arrived request.  Subclasses decide where it goes."""
        raise NotImplementedError

    def on_request_finished(self, request: Request, instance: Instance) -> None:
        """Hook: a request completed on ``instance``."""

    # -- recoverable failures (chaos injection) -----------------------------------

    def is_down(self, instance: Instance) -> bool:
        """Scheduler-visible failure state (post heartbeat detection)."""
        return instance.name in self.known_failed

    def register_crash(self, instance: Instance, lost: list[Request]) -> None:
        """Crash-time bookkeeping.  Transport-level state is cleaned up
        immediately (torn transfers, dead allocations); schedulers stay
        oblivious until :meth:`notice_failure`."""
        for request in lost:
            self._stash_orphan(instance, request)
        self.metrics.record_fault_event("crash", instance.name, self.sim.now)
        self.on_instance_crashed(instance)

    def _stash_orphan(self, instance: Instance, request: Request) -> None:
        bucket = self._orphans.setdefault(instance.name, [])
        if all(r.request_id != request.request_id for r in bucket):
            bucket.append(request)

    def on_instance_crashed(self, instance: Instance) -> None:
        """Hook: transport-level cleanup at crash time (subclasses)."""

    def notice_failure(self, instance: Instance) -> None:
        """The heartbeat monitor declared ``instance`` failed: re-route."""
        if self.halted or instance.name in self.known_failed:
            return
        self.known_failed.add(instance.name)
        self.metrics.record_fault_event("detect", instance.name, self.sim.now)
        self.trace.emit(
            self.sim.now, "resilience", "fault-detect", instance=instance.name
        )
        orphans = self._orphans.pop(instance.name, [])
        # Arrivals routed here between the crash and its detection.
        for request in instance.sweep_waiting():
            if all(r.request_id != request.request_id for r in orphans):
                orphans.append(request)
        if orphans:
            self.recover_lost_requests(instance, orphans)

    def on_instance_recovered(self, instance: Instance) -> None:
        """``instance.recover()`` announced itself: re-queue leftovers."""
        self.known_failed.discard(instance.name)
        self.metrics.record_fault_event("recover", instance.name, self.sim.now)
        self.trace.emit(
            self.sim.now, "resilience", "fault-recover", instance=instance.name
        )
        orphans = self._orphans.pop(instance.name, [])
        if orphans:
            self.recover_lost_requests(instance, orphans)
        self.after_recovery(instance)

    def recover_lost_requests(self, instance: Instance, lost: list[Request]) -> None:
        """Re-queue requests whose KV died with ``instance``.

        Default policy: re-prefill from the prompt on the same instance
        (work parks in its waiting queue and drains at recovery), highest
        SLO tier first.  Subclasses re-route to surviving instances instead.
        """
        for request in tier_ordered(lost):
            if request.finished:
                continue
            self._reset_for_requeue(request)
            instance.waiting.append(request)
        instance.kick()

    def _reset_for_requeue(self, request: Request) -> None:
        """Roll a crash-orphaned request back to a clean re-prefill state."""
        request.chunk_in_flight = False
        request.handoff = None
        request.migrating = False
        if (
            request.phase is not Phase.WAITING_PREFILL
            or request.prefilled_tokens
            or request.output_generated
        ):
            request.restart_prefill()
            self._mark_requeued(request)

    def _mark_requeued(self, request: Request) -> None:
        # Decode-side timing restarts with the re-queue (TTFT keeps the
        # first token the client actually saw).
        request.decode_queue_enter = None
        request.decode_start = None
        self.metrics.bump("crash_requeued")
        self.metrics.bump(f"crash_requeued[{request.tier}]")
        if request.tenant != DEFAULT_TENANT:
            self.metrics.bump(f"crash_requeued[tenant:{request.tenant}]")
        self.trace.emit(
            self.sim.now, "resilience", "request-requeue", request_id=request.request_id
        )

    def after_recovery(self, instance: Instance) -> None:
        """Hook: restart stalled pipelines once ``instance`` is back."""
        instance.kick()

    def on_transfer_failed(self, job: TransferJob) -> None:
        """Hook: a KV transfer exhausted its retries (subclasses)."""

    # -- degraded-mode admission control ------------------------------------------
    #
    # Admission decisions live in the policy layer (repro.policies.admission);
    # the system only exposes the state policies read (``in_flight_by_tier``)
    # and the shed primitive they call back into.

    def in_flight_by_tier(self) -> Mapping[str, int]:
        """Unresolved (arrived, not completed, not shed) requests per tier.

        The live ledger, read-only to callers.  A tier's key appears when
        its first request arrives, so the order is first-arrival order."""
        return self._tier_inflight

    # -- in-flight ledgers ----------------------------------------------------

    def tenant_usage(self, tenant: str) -> tuple[int, int]:
        """(in-flight requests, in-flight prompt+output tokens) for a tenant."""
        return (
            self._tenant_inflight.get(tenant, 0),
            self._tenant_tokens.get(tenant, 0),
        )

    def _charge_usage(self, request: Request) -> None:
        tier = request.tier
        self._tier_inflight[tier] = self._tier_inflight.get(tier, 0) + 1
        tenant = request.tenant
        self._tenant_inflight[tenant] = self._tenant_inflight.get(tenant, 0) + 1
        self._tenant_tokens[tenant] = (
            self._tenant_tokens.get(tenant, 0)
            + request.prompt_tokens
            + request.output_tokens
        )

    def _release_usage(self, request: Request, instance=None) -> None:
        tier = request.tier
        self._tier_inflight[tier] = self._tier_inflight.get(tier, 0) - 1
        tenant = request.tenant
        self._tenant_inflight[tenant] = self._tenant_inflight.get(tenant, 0) - 1
        self._tenant_tokens[tenant] = (
            self._tenant_tokens.get(tenant, 0)
            - request.prompt_tokens
            - request.output_tokens
        )

    def _note_tenant_peaks(self, request: Request) -> None:
        # Watermark counters back the "budgets never exceeded at any sim
        # instant" machine check.  Only tenant-carrying runs record them,
        # so tenant-free goldens keep their exact metric surfaces.
        tenant = request.tenant
        key = f"tenant_peak_inflight[tenant:{tenant}]"
        current = self._tenant_inflight.get(tenant, 0)
        if current > self.metrics.counters.get(key, 0):
            self.metrics.counters[key] = current
        key = f"tenant_peak_tokens[tenant:{tenant}]"
        tokens = self._tenant_tokens.get(tenant, 0)
        if tokens > self.metrics.counters.get(key, 0):
            self.metrics.counters[key] = tokens

    def _shed(self, request: Request) -> None:
        request.phase = Phase.SHED
        request.shed_time = self.sim.now
        self._release_usage(request)
        self.metrics.record_shed(request)
        # The tier and tenant ride along only when set: tier- and
        # tenant-free goldens stay byte-identical.
        payload = {"request_id": request.request_id}
        if request.tier != DEFAULT_TIER:
            payload["tier"] = request.tier
        if request.tenant != DEFAULT_TENANT:
            payload["tenant"] = request.tenant
        self.trace.emit(self.sim.now, "resilience", "request-shed", **payload)

    # -- failure injection -------------------------------------------------------

    def crash(self) -> list[Request]:
        """Whole-system crash (node failure), recoverable via :meth:`restart`.

        The crash flows through ``Instance.fail()`` on every instance, so all
        KV allocations are freed (the lifecycle ledger stays balanced) and
        the per-instance crash bookkeeping (torn transfers, migration
        rescues, hand-off stashes) runs exactly as for a single-instance
        crash.  Afterwards the system is halted: future callbacks are
        inert until :meth:`restart`.  Returns the unfinished requests so a
        higher layer (e.g. a fleet router) can retry them elsewhere.
        """
        lost: dict[int, Request] = {}
        for instance in self.instances:
            if instance.failed:
                continue
            fallen = instance.fail()
            for request in fallen:
                lost.setdefault(request.request_id, request)
            self.register_crash(instance, fallen)
        # register_crash stashes transport-level orphans (mid-flight
        # hand-offs, aborted migrations) per instance; the fleet owns the
        # retry, so drain them all here.
        for bucket in self._orphans.values():
            for request in bucket:
                lost.setdefault(request.request_id, request)
        self._orphans.clear()
        self.halted = True
        for instance in self.instances:
            instance.halted = True
        self.crash_epoch += 1
        return [r for r in lost.values() if not r.finished]

    def restart(self) -> None:
        """Undo :meth:`crash`: recover every instance with fresh KV pools.

        The crashed pools are archived to each instance's ``retired_kv`` so
        post-run audits still see the full allocation history.  The system
        resumes with empty queues — whoever crashed it re-routes the lost
        work (the fleet router does this at detection time).
        """
        if not self.halted:
            return
        self.halted = False
        for instance in self.instances:
            instance.halted = False
        for instance in self.instances:
            if instance.failed:
                instance.recover()

    # -- running -------------------------------------------------------------------

    def load_workload(self, requests: Iterable[Request]) -> int:
        """Stream a batch of requests into the simulator as arrivals.

        They fire in (arrival time, input order), as one scheduled event
        each would; see :meth:`~repro.sim.engine.Simulator.feed`.
        """
        return self.sim.feed(sorted(requests, key=arrival_time), self._arrive, arrival_time)

    def _arrive(self, request: Request) -> None:
        self.submitted += 1
        # The ledgers include the arriving request while admission runs, so
        # budget policies compare with strict ``>`` (admit up to the cap).
        self._charge_usage(request)
        if not self.admission.admit(self, request):
            self._shed(request)
            return
        if request.tenant != DEFAULT_TENANT or self.config.fairshare is not None:
            self._note_tenant_peaks(request)
        self.submit(request)

    def forget_arrival(self, request: Request) -> None:
        """Remove a request from arrival accounting after it re-routes away.

        A fleet that re-routes a dead member's in-flight work to survivors
        must also move the arrival counts, or the dead member reports
        phantom load forever (it will never record the completion).
        """
        self.submitted -= 1
        self._release_usage(request)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)
        self.metrics.horizon = self.sim.now

    def run_to_completion(self, requests: Iterable[Request]) -> MetricsCollector:
        """Load a workload, drain it fully, and return the metrics."""
        self.load_workload(requests)
        self.sim.run_until_idle()
        self.metrics.horizon = self.sim.now
        return self.metrics

    # -- determinism ---------------------------------------------------------

    def policy_identity(self) -> tuple[tuple[str, str], ...]:
        """Non-baseline policy choices, as (kind, name) fingerprint pairs.

        Baseline choices are omitted so every golden recorded before the
        policy layer existed keeps its exact digest.
        """
        preemption = {self.config.instance.preemption_policy}
        if self.config.decode_instance is not None:
            preemption.add(self.config.decode_instance.preemption_policy)
        preemption.discard(FINGERPRINT_BASELINES["preemption"])
        # Automatic prefix caching changes scheduling behaviour, so an
        # enabled cache is stamped into the fingerprint identity; the
        # default (0 — off) serialises nothing, preserving old digests.
        prefix_tokens = {self.config.instance.prefix_cache_tokens}
        if self.config.decode_instance is not None:
            prefix_tokens.add(self.config.decode_instance.prefix_cache_tokens)
        prefix_tokens.discard(0)
        return policy_identity(
            admission=self.config.admission_policy,
            preemption="+".join(sorted(preemption)) if preemption else None,
            prefix_cache=(
                "+".join(str(t) for t in sorted(prefix_tokens))
                if prefix_tokens
                else None
            ),
            # Fair-share knobs change scheduling order and shed decisions,
            # so a configured discipline is stamped; the default (None)
            # serialises nothing, preserving old digests.
            fair_share=(
                self.config.fairshare.spec_string()
                if self.config.fairshare is not None
                else None
            ),
        )

    def run_fingerprint(self, rng_registry: Iterable[str] = ()) -> "RunFingerprint":
        """Composite determinism fingerprint of the run so far.

        Hashes the ordered trace stream, the final per-request metrics, the
        named-RNG-stream registry of the workload (pass
        ``trace.rng_registry`` from :func:`~repro.workloads.trace.
        generate_trace`), and the simulator's terminal state.  Identical
        scenarios with identical seeds must yield identical fingerprints.
        """
        digest = self.sim.digest()
        return fingerprint_run(
            self.trace,
            self.metrics.completed,
            rng_registry=rng_registry,
            events_processed=digest["events_processed"],
            horizon=digest["now"],
            policies=self.policy_identity(),
        )
