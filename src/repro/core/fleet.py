"""Fleet serving: load balancing across serving systems (paper §7).

"There are still many pressing issues to be addressed in large-scale
deployment, such as load balancing across instances" — this module scales
WindServe (or any serving system) out to several independent prefill/decode
pairs on a shared cluster, with a pluggable request router drawn from the
scheduling-policy layer (:mod:`repro.policies.routing`): ``round-robin``,
``least-loaded``, ``predicted-ttft`` (the Global Scheduler's prediction
machinery reused as a cluster-level balancer), and ``tier-aware``
(tier-weighted load; best-effort absorbs stragglers).

All members share one simulator and one cluster topology, so their KV
transfers and swaps contend on real links.

The fleet also owns the cluster-scope failure story.  Failure *truth* and
failure *knowledge* are separated exactly as inside a single system:
``crash_member`` kills a member (its KV is freed, its callbacks go inert)
without telling the router; a :class:`~repro.faults.detection.
FleetHeartbeatMonitor` later calls ``notice_member_failure``, which marks
the member dead, sweeps its queues, and re-routes every unfinished
assignment to the surviving members — counting the retries that landed on
a different node.  ``fail_member`` (the test/manual entry point) is just
crash + immediate detection.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

from repro.core.config import FleetShape, WindServeConfig
from repro.core.windserve import WindServeSystem
from repro.hardware.cluster import ClusterTopology
from repro.hardware.gpu import get_gpu, gpu_key
from repro.models.parallelism import ParallelConfig
from collections import Counter

from repro.policies.base import policy_identity
from repro.policies.fairshare import TenantRateLimiter
from repro.policies.routing import ROUTING_POLICIES, member_load as _member_load
from repro.serving.metrics import MetricsCollector
from repro.serving.placement import Placement
from repro.serving.request import Phase, Request, tier_ordered
from repro.serving.system import ServingSystem, SystemConfig
from repro.sim.engine import Simulator
from repro.sim.fingerprint import RunFingerprint, fingerprint_run
from repro.sim.trace import TraceLog

# Router names come straight from the policy registry, so a newly
# registered RoutingPolicy shows up in CLI choices automatically.
ROUTER_POLICIES = ROUTING_POLICIES.names()


class ServingFleet:
    """A router plus several serving systems sharing one simulator."""

    def __init__(self, members: Sequence[ServingSystem], policy: str = "predicted-ttft") -> None:
        if not members:
            raise ValueError("a fleet needs at least one member")
        self.router = ROUTING_POLICIES.create(policy)
        sims = {id(m.sim) for m in members}
        if len(sims) != 1:
            raise ValueError("all fleet members must share one simulator")
        self.members = list(members)
        self.policy = policy
        self.sim: Simulator = members[0].sim
        topology = members[0].topology
        self.cluster: Optional[ClusterTopology] = (
            topology if isinstance(topology, ClusterTopology) else None
        )
        self.routed: list[int] = [0] * len(members)
        # Router *knowledge*: members declared dead by detection.
        self.failed: set[int] = set()
        # Ground *truth*: members actually down (set by crash_member).
        self.crashed: set[int] = set()
        # Eligible-member cache: membership only changes at failure
        # detection / rejoin / replan, so the per-submit recompute (the
        # fleet phase's hottest line) is memoised between those events.
        self._eligible_cache: Optional[list[int]] = None
        # Heterogeneous-fleet identity: the FleetShape this fleet was built
        # from (None for shape-less construction).  A non-default shape is
        # stamped into the run fingerprint's policy identity.
        self.shape: Optional[FleetShape] = None
        # Failure-reactive re-planner (core.replan.FleetReplanner); fired
        # from notice_member_failure before the dead member's work
        # re-routes, so requeues land on the widened survivors.
        self.replanner = None
        self.replanned_members = 0
        self.replan_requeues = 0
        self._assignments: dict[int, list[Request]] = {i: [] for i in range(len(members))}
        self.retried = 0
        self.retried_by_tier: Counter[str] = Counter()
        self.cross_node_retries = 0
        # Fleet-level fault lifecycle (member-crash/-detect/-rejoin events)
        # and the fleet's own trace stream (re-routes, detection decisions).
        self.metrics = MetricsCollector()
        self.trace = TraceLog(enabled=False)
        self.replacement_lags: list[float] = []
        # Optional per-tenant token-bucket gateway (policies/fairshare.py):
        # when set, every submit spends one bucket token for its tenant and
        # over-rate arrivals shed at the gateway, before routing.
        self.rate_limiter: Optional[TenantRateLimiter] = None
        # Let the router observe completions on every member (stateful
        # policies adapt without the fleet subclassing each system type).
        for i, member in enumerate(self.members):
            member.finish_listeners.append(
                lambda request, instance, index=i: self.router.observe_completion(
                    self, index, request
                )
            )

    # -- placement introspection ----------------------------------------------

    def member_nodes(self, index: int) -> frozenset[int]:
        """Cluster nodes a member's GPUs span ({0} off-cluster)."""
        self._check_index(index)
        if self.cluster is None:
            return frozenset({0})
        return frozenset(
            self.cluster.node_of(gpu)
            for instance in self.members[index].instances
            for gpu in instance.gpus
        )

    def members_on_node(self, node: int) -> list[int]:
        """Indices of members with at least one GPU on ``node``."""
        return [
            i for i in range(len(self.members)) if node in self.member_nodes(i)
        ]

    # -- routing -------------------------------------------------------------

    def _invalidate_eligible(self) -> None:
        """Membership changed (failure/rejoin/replan): drop the cache."""
        self._eligible_cache = None

    def eligible_members(self) -> list[int]:
        """Members the router may pick (cached; do not mutate the list)."""
        alive = self._eligible_cache
        if alive is None:
            alive = [i for i in range(len(self.members)) if i not in self.failed]
            self._eligible_cache = alive
        if not alive:
            raise RuntimeError("every fleet member has failed")
        return alive

    def select_member(self, request: Request) -> int:
        return self.router.select(self, self.eligible_members(), request)

    def submit(self, request: Request) -> int:
        """Route one request; returns the chosen member index.

        Delivery goes through the member's ``_arrive`` path, so arrival
        accounting and degraded-mode shedding apply to fleet-routed traffic
        exactly as they do to directly-loaded workloads.  With a
        ``rate_limiter`` attached, an over-rate tenant's arrival sheds at
        the gateway (recorded in the fleet's own metrics, so merged
        conservation still balances) and ``-1`` is returned.
        """
        if self.rate_limiter is not None and not self.rate_limiter.allow(
            request, self.sim.now
        ):
            self._gateway_shed(request)
            return -1
        index = self.select_member(request)
        self.routed[index] += 1
        self._assignments[index].append(request)
        self.members[index]._arrive(request)
        return index

    def _gateway_shed(self, request: Request) -> None:
        """Drop an over-rate arrival before it reaches any member."""
        request.phase = Phase.SHED
        request.extra["shed_time"] = self.sim.now
        self.metrics.record_shed(request)
        self.metrics.bump("tenant_rate_limited")
        self.metrics.bump(f"tenant_rate_limited[tenant:{request.tenant}]")
        self.trace.emit(
            self.sim.now,
            "fleet",
            "rate-limit-shed",
            request_id=request.request_id,
            tenant=request.tenant,
        )

    # -- failure truth ---------------------------------------------------------

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self.members):
            raise ValueError(f"no member {index}")

    def crash_member(self, index: int) -> None:
        """Ground truth: the member dies (KV freed, callbacks inert).

        The router learns nothing here — requests keep landing on the dead
        member until :meth:`notice_member_failure` (normally driven by the
        fleet heartbeat monitor) declares it.
        """
        self._check_index(index)
        if index in self.crashed:
            return
        self.crashed.add(index)
        member = self.members[index]
        member.crash()
        self.metrics.record_fault_event("member-crash", member.name, self.sim.now)
        self.trace.emit(self.sim.now, "fleet", "member-crash", member=member.name)

    # -- failure knowledge (detection + re-routing) -----------------------------

    def notice_member_failure(self, index: int) -> int:
        """Declare a member dead and re-route its unfinished requests.

        Sweeps arrivals parked in the dead member's queues during the
        crash→detection window, resets every unfinished assignment, and
        resubmits them to the surviving members.  Returns the retry count.
        """
        self._check_index(index)
        if index in self.failed:
            return 0
        if len(self.failed) + 1 >= len(self.members):
            raise RuntimeError("every fleet member would have failed")
        self.failed.add(index)
        self._invalidate_eligible()
        self.router.observe_failure(self, index)
        member = self.members[index]
        self.metrics.record_fault_event("member-detect", member.name, self.sim.now)
        self.trace.emit(self.sim.now, "fleet", "member-detect", member=member.name)
        # Post-crash arrivals park in the member's waiting queues; drain
        # them so a later rejoin cannot re-run work we re-route now.
        for instance in member.instances:
            instance.sweep_waiting()
        # Re-plan the survivors *before* re-routing the dead member's lost
        # work, so the requeues land on the widened placements.
        if self.replanner is not None:
            self.replanner.on_member_failure(self, index)
        lost = [
            r
            for r in self._assignments[index]
            if not r.finished and r.phase is not Phase.SHED
        ]
        self._assignments[index] = []
        src_nodes = self.member_nodes(index)
        # Highest SLO tier first: interactive work re-routes (and claims
        # surviving capacity) before best-effort.  The sort is stable, so
        # single-tier fleets re-route in the exact pre-tier order.
        lost = tier_ordered(lost)
        for request in lost:
            member.forget_arrival(request)
            request.reset_for_retry()
            self.retried += 1
            self.retried_by_tier[request.tier] += 1
            destination = self.submit(request)
            if destination < 0:
                continue  # the retry shed at the rate-limit gateway
            if self.member_nodes(destination) != src_nodes:
                self.cross_node_retries += 1
            self.trace.emit(
                self.sim.now,
                "fleet",
                "request-requeue",
                request_id=request.request_id,
                member=self.members[destination].name,
            )
        self.on_member_failure(index)
        return len(lost)

    def fail_member(self, index: int) -> int:
        """Kill one member and retry its in-flight requests immediately.

        Crash + instant detection in one call (the manual/test entry
        point; chaos runs go through the injector and the heartbeat
        monitor instead).  Returns the retry count.
        """
        self._check_index(index)
        if index in self.failed:
            return 0
        if len(self.failed) + 1 >= len(self.members):
            raise RuntimeError("every fleet member would have failed")
        self.crash_member(index)
        return self.notice_member_failure(index)

    def restart_member(self, index: int) -> None:
        """Bring a crashed member back (fresh KV pools, empty queues).

        If the crash was never detected, nobody re-routed its orphans —
        sweep and resubmit them here so no work is silently lost.
        """
        self._check_index(index)
        if index not in self.crashed:
            return
        member = self.members[index]
        undetected = index not in self.failed
        lost: list[Request] = []
        if undetected:
            for instance in member.instances:
                instance.sweep_waiting()
            lost = [
                r
                for r in self._assignments[index]
                if not r.finished and r.phase is not Phase.SHED
            ]
            self._assignments[index] = []
        self.crashed.discard(index)
        self.failed.discard(index)
        self._invalidate_eligible()
        member.restart()
        self.metrics.record_fault_event("member-rejoin", member.name, self.sim.now)
        self.trace.emit(self.sim.now, "fleet", "member-rejoin", member=member.name)
        self.on_member_restart(index)
        for request in tier_ordered(lost):
            member.forget_arrival(request)
            request.reset_for_retry()
            self.retried += 1
            self.retried_by_tier[request.tier] += 1
            self.submit(request)

    # -- failure-reactive re-planning ------------------------------------------

    def replan_member(
        self,
        index: int,
        placement: Placement,
        prefill_gpu=None,
        decode_gpu=None,
    ) -> int:
        """Rebuild a *surviving* member onto a new placement.

        Conservation rides the existing crash-requeue path: the member
        drains through ``crash()`` (KV freed, pools archived for the
        freed-exactly-once audit), is rebuilt onto ``placement``, restarts,
        and every unfinished request it held re-queues through the normal
        tier-ordered retry — in-flight requests on *other* members are
        untouched.  Returns the requeue count.
        """
        self._check_index(index)
        if index in self.crashed or index in self.failed:
            raise RuntimeError(f"member {index} is down; only survivors replan")
        member = self.members[index]
        if not hasattr(member, "rebuild_placement"):
            raise RuntimeError(f"{member.name} does not support re-planning")
        old_label = member.placement.label()
        member.crash()
        lost = [
            r
            for r in self._assignments[index]
            if not r.finished and r.phase is not Phase.SHED
        ]
        self._assignments[index] = []
        member.rebuild_placement(
            placement, prefill_gpu=prefill_gpu, decode_gpu=decode_gpu
        )
        member.restart()
        self.replanned_members += 1
        self._invalidate_eligible()
        self.metrics.record_fault_event("member-replan", member.name, self.sim.now)
        self.trace.emit(
            self.sim.now,
            "fleet",
            "member-replan",
            member=member.name,
            placement=placement.label(),
        )
        for request in tier_ordered(lost):
            member.forget_arrival(request)
            request.reset_for_retry()
            self.retried += 1
            self.retried_by_tier[request.tier] += 1
            self.replan_requeues += 1
            destination = self.submit(request)
            if destination < 0:
                continue  # the retry shed at the rate-limit gateway
            self.trace.emit(
                self.sim.now,
                "fleet",
                "request-requeue",
                request_id=request.request_id,
                member=self.members[destination].name,
            )
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                "fleet",
                "member-replan-done",
                member=member.name,
                from_placement=old_label,
                requeued=len(lost),
            )
        return len(lost)

    # -- heterogeneous accounting ----------------------------------------------

    def member_gpu_counts(self, index: int) -> Counter:
        """GPU count per registry key for one member (billing namespaces)."""
        self._check_index(index)
        counts: Counter[str] = Counter()
        for instance in self.members[index].instances:
            counts[gpu_key(instance.gpu)] += len(instance.gpus)
        return counts

    def gpu_counts_by_type(self) -> Counter:
        """Fleet-wide GPU count per registry key (mixed fleets differ)."""
        counts: Counter[str] = Counter()
        for index in range(len(self.members)):
            counts.update(self.member_gpu_counts(index))
        return counts

    # -- autoscaler hooks -------------------------------------------------------

    def on_member_failure(self, index: int) -> None:
        """Hook: a member was declared dead (autoscalers promote standby)."""

    def on_member_restart(self, index: int) -> None:
        """Hook: a crashed member rejoined the fleet."""

    # -- running ----------------------------------------------------------------

    def load_workload(self, requests: Iterable[Request]) -> int:
        n = 0
        for request in requests:
            self.sim.call_at(request.arrival_time, self.submit, request)
            n += 1
        return n

    def run_to_completion(self, requests: Iterable[Request]) -> MetricsCollector:
        self.load_workload(requests)
        self.sim.run_until_idle()
        return self.merged_metrics()

    def merged_metrics(self) -> MetricsCollector:
        """One collector aggregating every member's results.

        Member shed lists and fault events are merged alongside
        completions, so fleet reports see degraded-mode drops and injected
        faults; fleet-level events (member-crash/-detect/-rejoin) ride
        along un-namespaced.
        """
        merged = MetricsCollector()
        horizon = 0.0
        for member in self.members:
            merged.merge_from(member.metrics, label=member.name)
            horizon = max(horizon, member.metrics.horizon, member.sim.now)
        merged.merge_from(self.metrics)
        merged.horizon = max(horizon, merged.horizon)
        return merged

    def fleet_resilience_summary(self) -> dict:
        """Fleet-scope resilience accounting (all zero fault-free)."""
        detect = self.metrics._fault_deltas("member-crash", "member-detect")
        rejoin = self.metrics._fault_deltas("member-crash", "member-rejoin")
        per_member: dict[str, float] = {}
        open_at: dict[str, float] = {}
        for event in self.metrics.fault_events:
            if event["kind"] == "member-crash":
                open_at.setdefault(event["target"], event["time"])
            elif event["kind"] == "member-rejoin" and event["target"] in open_at:
                start = open_at.pop(event["target"])
                per_member[event["target"]] = (
                    per_member.get(event["target"], 0.0) + event["time"] - start
                )
        return {
            "member_crashes": sum(
                1 for e in self.metrics.fault_events if e["kind"] == "member-crash"
            ),
            "requests_retried": self.retried,
            "requests_retried_by_tier": dict(self.retried_by_tier),
            "cross_node_retries": self.cross_node_retries,
            "members_replanned": self.replanned_members,
            "replan_requeues": self.replan_requeues,
            "member_detection_latency_s": (
                sum(detect) / len(detect) if detect else 0.0
            ),
            "member_downtime_s": sum(rejoin),
            "per_member_downtime_s": per_member,
            "replacement_lag_s": (
                sum(self.replacement_lags) / len(self.replacement_lags)
                if self.replacement_lags
                else 0.0
            ),
        }

    # -- determinism -------------------------------------------------------------

    def policy_identity(self) -> tuple[tuple[str, str], ...]:
        """Non-baseline policy choices across the fleet (router + members)."""
        pairs = dict(policy_identity(router=self.policy))
        if self.rate_limiter is not None:
            # Gateway rate limiting sheds arrivals, so it is run identity.
            pairs.setdefault(
                "rate_limit",
                f"{self.rate_limiter.rate:g}/{self.rate_limiter.burst:g}",
            )
        # A non-default fleet shape changes hardware, hence behaviour, so
        # it is run identity; the default (homogeneous A800 TP-2/TP-2, or
        # no shape at all) serialises nothing — old goldens keep their
        # digests.
        if self.shape is not None and not self.shape.is_default:
            pairs.setdefault("fleet_shape", self.shape.spec_string())
        if self.replanner is not None:
            pairs.setdefault("replan", self.replanner.identity())
        for member in self.members:
            for kind, name in member.policy_identity():
                pairs.setdefault(kind, name)
        return tuple(sorted(pairs.items()))

    def run_fingerprint(self, rng_registry: Iterable[str] = ()) -> RunFingerprint:
        """Composite determinism fingerprint across the whole fleet.

        Uses the fleet's trace stream (share one ``TraceLog`` across the
        fleet and its members for golden runs) plus the merged per-request
        metrics and the shared simulator's terminal state.
        """
        digest = self.sim.digest()
        return fingerprint_run(
            self.trace,
            self.merged_metrics().completed,
            rng_registry=rng_registry,
            events_processed=digest["events_processed"],
            horizon=digest["now"],
            policies=self.policy_identity(),
        )

    @property
    def num_gpus(self) -> int:
        return sum(m.num_gpus for m in self.members)


def group_link_gbps(cluster: ClusterTopology, group: tuple[int, ...]) -> float:
    """Worst pairwise path bottleneck inside a TP group, in GiB/s."""
    worst = float("inf")
    for i in range(len(group)):
        for j in range(i + 1, len(group)):
            path = cluster.path(group[i], group[j])
            worst = min(worst, path.bottleneck_bytes_per_s / 1024**3)
    return worst


def parallel_with_link(
    cluster: ClusterTopology, cfg: ParallelConfig, group: tuple[int, ...]
) -> ParallelConfig:
    """Bind a parallel config to its GPU group's real TP link bandwidth."""
    if cfg.tp == 1:
        return cfg
    return ParallelConfig(
        tp=cfg.tp,
        pp=cfg.pp,
        tp_link_gbps=group_link_gbps(cluster, group),
        tp_efficiency=cfg.tp_efficiency,
    )


def cluster_for_shape(
    shape: FleetShape,
    pairs_per_node: int = 2,
    gpus_per_node: int = 8,
    nic_gbps: float = 12.5,
) -> ClusterTopology:
    """Build the (possibly heterogeneous) cluster a fleet shape needs.

    Member ``i`` homes on node ``i // pairs_per_node``; every member homed
    on one node must share a GPU type (``ClusterTopology`` models one
    device type per node) and the node must fit their combined GPUs.
    """
    if pairs_per_node < 1:
        raise ValueError("pairs_per_node must be >= 1")
    num_nodes = (len(shape.members) + pairs_per_node - 1) // pairs_per_node
    node_gpus = []
    for node in range(num_nodes):
        homed = shape.members[node * pairs_per_node : (node + 1) * pairs_per_node]
        types = {m.gpu for m in homed}
        if len(types) > 1:
            raise ValueError(
                f"node {node} mixes GPU types {sorted(types)}; members homed "
                "on one node must share a type (reorder the shape or lower "
                "pairs_per_node)"
            )
        needed = sum(m.num_gpus for m in homed)
        if needed > gpus_per_node:
            raise ValueError(
                f"node {node} cannot host {needed} GPUs "
                f"(gpus_per_node={gpus_per_node})"
            )
        node_gpus.append(get_gpu(homed[0].gpu))
    return ClusterTopology(
        num_nodes=num_nodes,
        gpus_per_node=gpus_per_node,
        nic_gbps=nic_gbps,
        node_gpus=node_gpus,
    )


def build_windserve_fleet(
    config: SystemConfig,
    cluster: Optional[ClusterTopology] = None,
    prefill_parallel: ParallelConfig = ParallelConfig(tp=2),
    decode_parallel: ParallelConfig = ParallelConfig(tp=2),
    pairs_per_node: int = 2,
    policy: str = "predicted-ttft",
    ws_config: Optional[WindServeConfig] = None,
    system_factory: Optional[Callable[..., ServingSystem]] = None,
    span_nodes: bool = False,
    fleet_factory: Optional[Callable[..., "ServingFleet"]] = None,
    shape: Optional[FleetShape] = None,
) -> ServingFleet:
    """Place one WindServe prefill/decode pair per slot across a cluster.

    Without ``shape``, each node hosts ``pairs_per_node`` identical pairs
    of ``prefill_parallel``/``decode_parallel`` members on ``config.gpu``
    devices (the original homogeneous layout, byte-identical to pre-shape
    runs).  With a :class:`~repro.core.config.FleetShape`, member ``i``
    takes its *own* GPU type and parallelism from ``shape.members[i]`` and
    homes on node ``i // pairs_per_node``; ``cluster`` may then be omitted
    (one is derived via :func:`cluster_for_shape`) or must match the
    shape's per-node GPU types.

    All pairs share the cluster's simulator and links.  ``system_factory``
    swaps in a different P/D member system type (e.g. ``DistServeSystem``)
    for comparisons; every factory gets the same arguments (``ws_config``
    binds only the default WindServe factory).  With ``span_nodes``, a member keeps its prefill instance
    on its home node ``k`` but places its decode instance on node
    ``(k+1) % num_nodes`` — every KV hand-off then crosses the RDMA NICs,
    which is what makes ``nic:<k>`` fault targets bite.  ``fleet_factory``
    wraps the members in a fleet subclass (e.g. ``AutoscalingFleet``).
    """
    if shape is not None:
        return _build_shaped_fleet(
            config,
            shape,
            cluster=cluster,
            pairs_per_node=pairs_per_node,
            policy=policy,
            ws_config=ws_config,
            system_factory=system_factory,
            span_nodes=span_nodes,
            fleet_factory=fleet_factory,
        )
    if cluster is None:
        raise ValueError("a shape-less fleet needs an explicit cluster")
    sim = Simulator()
    members: list[ServingSystem] = []
    gpus_needed = prefill_parallel.num_gpus + decode_parallel.num_gpus
    factory = system_factory or partial(WindServeSystem, ws_config=ws_config)

    def _slots(node: int, start_local: int, count: int) -> tuple[int, ...]:
        base = node * cluster.gpus_per_node
        if start_local + count > cluster.gpus_per_node:
            raise ValueError(
                f"node {node} cannot host {pairs_per_node} pairs of "
                f"{gpus_needed} GPUs"
            )
        return tuple(range(base + start_local, base + start_local + count))

    for node in range(cluster.num_nodes):
        for pair in range(pairs_per_node):
            if span_nodes:
                # Prefill slots pack the front of the home node; decode
                # slots pack behind the *next* node's prefill block.
                decode_node = (node + 1) % cluster.num_nodes
                prefill_gpus = _slots(
                    node, pair * prefill_parallel.num_gpus, prefill_parallel.num_gpus
                )
                decode_gpus = _slots(
                    decode_node,
                    pairs_per_node * prefill_parallel.num_gpus
                    + pair * decode_parallel.num_gpus,
                    decode_parallel.num_gpus,
                )
            else:
                start = pair * gpus_needed
                prefill_gpus = _slots(node, start, prefill_parallel.num_gpus)
                decode_gpus = _slots(
                    node, start + prefill_parallel.num_gpus, decode_parallel.num_gpus
                )
            placement = Placement(
                prefill_gpus=prefill_gpus,
                decode_gpus=decode_gpus,
                prefill_parallel=parallel_with_link(
                    cluster, prefill_parallel, prefill_gpus
                ),
                decode_parallel=parallel_with_link(
                    cluster, decode_parallel, decode_gpus
                ),
            )
            member = factory(config, placement=placement, topology=cluster, sim=sim)
            member.name = f"{member.name}-{node}.{pair}"
            members.append(member)
    build_fleet = fleet_factory or ServingFleet
    return build_fleet(members, policy=policy)


def _build_shaped_fleet(
    config: SystemConfig,
    shape: FleetShape,
    cluster: Optional[ClusterTopology] = None,
    pairs_per_node: int = 2,
    policy: str = "predicted-ttft",
    ws_config: Optional[WindServeConfig] = None,
    system_factory: Optional[Callable[..., ServingSystem]] = None,
    span_nodes: bool = False,
    fleet_factory: Optional[Callable[..., "ServingFleet"]] = None,
) -> ServingFleet:
    """The heterogeneous layout: per-member GPU types and placements."""
    if cluster is None:
        cluster = cluster_for_shape(shape, pairs_per_node=pairs_per_node)
    num_nodes = cluster.num_nodes
    if len(shape.members) > num_nodes * pairs_per_node:
        raise ValueError(
            f"cluster has {num_nodes} nodes x {pairs_per_node} slots; "
            f"shape has {len(shape.members)} members"
        )
    sim = Simulator()
    factory = system_factory or partial(WindServeSystem, ws_config=ws_config)
    home_node = [i // pairs_per_node for i in range(len(shape.members))]
    # Per-node prefill-block sizes (span mode packs every home prefill at
    # the front of its node; decode blocks stack behind the *next* node's
    # prefill block, generalising the uniform-shape offset math).
    prefill_total = [0] * num_nodes
    for i, member_shape in enumerate(shape.members):
        p_tp, p_pp = member_shape.prefill_parallel
        prefill_total[home_node[i]] += p_tp * p_pp
    # Per-node allocation cursors.
    used = [0] * num_nodes
    decode_used = [0] * num_nodes  # span mode: decode GPUs landed per node
    if span_nodes:
        used = list(prefill_total)

    def _claim(node: int, count: int, label: str) -> tuple[int, ...]:
        start = used[node]
        if start + count > cluster.gpus_per_node:
            raise ValueError(
                f"node {node} cannot host the shape's {label} block "
                f"({start + count} > {cluster.gpus_per_node} GPUs)"
            )
        used[node] += count
        base = node * cluster.gpus_per_node
        return tuple(range(base + start, base + start + count))

    members: list[ServingSystem] = []
    prefill_cursor = [0] * num_nodes
    for i, member_shape in enumerate(shape.members):
        node = home_node[i]
        gpu_spec = get_gpu(member_shape.gpu)
        if cluster.gpu_spec_of(node * cluster.gpus_per_node) != gpu_spec:
            raise ValueError(
                f"member {i} wants {member_shape.gpu} but node {node} "
                f"hosts {cluster.gpu_spec_of(node * cluster.gpus_per_node).name}"
            )
        p_cfg = ParallelConfig(
            tp=member_shape.prefill_parallel[0], pp=member_shape.prefill_parallel[1]
        )
        d_cfg = ParallelConfig(
            tp=member_shape.decode_parallel[0], pp=member_shape.decode_parallel[1]
        )
        decode_spec = gpu_spec
        if span_nodes:
            decode_node = (node + 1) % num_nodes
            base = node * cluster.gpus_per_node
            start = prefill_cursor[node]
            if start + p_cfg.num_gpus > prefill_total[node]:
                raise ValueError(f"node {node} prefill block overflow")
            prefill_gpus = tuple(range(base + start, base + start + p_cfg.num_gpus))
            prefill_cursor[node] += p_cfg.num_gpus
            d_base = decode_node * cluster.gpus_per_node
            d_start = prefill_total[decode_node] + decode_used[decode_node]
            if d_start + d_cfg.num_gpus > cluster.gpus_per_node:
                raise ValueError(
                    f"node {decode_node} cannot host member {i}'s decode "
                    f"block ({d_start + d_cfg.num_gpus} > "
                    f"{cluster.gpus_per_node} GPUs)"
                )
            decode_gpus = tuple(
                range(d_base + d_start, d_base + d_start + d_cfg.num_gpus)
            )
            decode_used[decode_node] += d_cfg.num_gpus
            decode_spec = cluster.gpu_spec_of(decode_gpus[0])
        else:
            prefill_gpus = _claim(node, p_cfg.num_gpus, f"member {i} prefill")
            decode_gpus = _claim(node, d_cfg.num_gpus, f"member {i} decode")
        placement = Placement(
            prefill_gpus=prefill_gpus,
            decode_gpus=decode_gpus,
            prefill_parallel=parallel_with_link(cluster, p_cfg, prefill_gpus),
            decode_parallel=parallel_with_link(cluster, d_cfg, decode_gpus),
        )
        member_config = replace(config, gpu=gpu_spec)
        member = factory(
            member_config,
            placement=placement,
            topology=cluster,
            sim=sim,
            decode_gpu=decode_spec,
        )
        member.name = f"{member.name}-{node}.{i % pairs_per_node}"
        members.append(member)
    build_fleet = fleet_factory or ServingFleet
    fleet = build_fleet(members, policy=policy)
    fleet.shape = shape
    return fleet
