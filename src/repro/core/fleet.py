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
without telling the router; the fleet's :class:`~repro.faults.detection.
HeartbeatMonitor` later calls ``notice_member_failure``, which marks
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
from repro.serving.placement import GpuLedger, Placement, bind_placement
from repro.serving.request import Phase, Request, arrival_time, tier_ordered
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
        request.shed_time = self.sim.now
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
        lost = self._take_unfinished(index)
        src_nodes = self.member_nodes(index)
        for request in lost:
            destination = self._requeue(member, request)
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
        lost: list[Request] = []
        if index not in self.failed:
            for instance in member.instances:
                instance.sweep_waiting()
            lost = self._take_unfinished(index)
        self.crashed.discard(index)
        self.failed.discard(index)
        self._invalidate_eligible()
        member.restart()
        self.metrics.record_fault_event("member-rejoin", member.name, self.sim.now)
        self.trace.emit(self.sim.now, "fleet", "member-rejoin", member=member.name)
        self.on_member_restart(index)
        for request in lost:
            self._requeue(member, request)

    # -- re-routing a member's unfinished work ---------------------------------

    def _take_unfinished(self, index: int) -> list[Request]:
        """Clear a member's assignments; return the unfinished, unshed ones.

        Highest SLO tier first: interactive work re-routes (and claims
        surviving capacity) before best-effort.  The sort is stable, so
        single-tier fleets re-route in the exact pre-tier order.
        """
        lost = [
            r
            for r in self._assignments[index]
            if not r.finished and r.phase is not Phase.SHED
        ]
        self._assignments[index] = []
        return tier_ordered(lost)

    def _requeue(self, member: ServingSystem, request: Request) -> int:
        """Move one request off ``member`` and route it again.

        Returns the destination index, or ``-1`` if the retry shed at the
        rate-limit gateway.
        """
        member.forget_arrival(request)
        request.reset_for_retry()
        self.retried += 1
        self.retried_by_tier[request.tier] += 1
        return self.submit(request)

    # -- failure-reactive re-planning ------------------------------------------

    def replan_member(self, index: int, placement: Placement) -> int:
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
        lost = self._take_unfinished(index)
        member.rebuild_placement(placement)
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
        for request in lost:
            self.replan_requeues += 1
            destination = self._requeue(member, request)
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

    # -- autoscaler hooks -------------------------------------------------------

    def on_member_failure(self, index: int) -> None:
        """Hook: a member was declared dead (autoscalers promote standby)."""

    def on_member_restart(self, index: int) -> None:
        """Hook: a crashed member rejoined the fleet."""

    # -- running ----------------------------------------------------------------

    def load_workload(self, requests: Iterable[Request]) -> int:
        """Stream a batch of requests into the shared simulator as
        arrivals, in (arrival time, input order)."""
        return self.sim.feed(sorted(requests, key=arrival_time), self.submit, arrival_time)

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


def cluster_for_shape(
    shape: FleetShape,
    pairs_per_node: int = 2,
    gpus_per_node: int = 8,
    nic_gbps: float = 12.5,
) -> ClusterTopology:
    """Build the (possibly heterogeneous) cluster a fleet shape needs.

    Member ``i`` homes on node ``i // pairs_per_node``; every member homed
    on one node must share a GPU type (``ClusterTopology`` models one
    device type per node).  Whether the members fit is the
    :class:`~repro.serving.placement.GpuLedger`'s call when the fleet claims
    its GPUs: in span mode a member's decode block sits on the next node.
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
    takes its *own* GPU type and parallelism from ``shape.members[i]``;
    ``cluster`` may then be omitted (one is derived via
    :func:`cluster_for_shape`) or must match the shape's per-node GPU types.

    Either way member ``i`` homes on node ``i // pairs_per_node`` and its
    GPUs come from one :class:`~repro.serving.placement.GpuLedger`, at
    each node's lowest free ids: each member claims its prefill block,
    then its decode block, on its home node.  With ``span_nodes``, every
    member first claims its prefill block at home, then each claims its
    decode block on node ``(home+1) % num_nodes`` — every KV hand-off then
    crosses the RDMA NICs, which is what makes ``nic:<k>`` fault targets
    bite.

    All pairs share the cluster's simulator and links.  ``system_factory``
    swaps in a different P/D member system type (e.g. ``DistServeSystem``)
    for comparisons; every factory gets the same arguments (``ws_config``
    binds only the default WindServe factory).  ``fleet_factory`` wraps the
    members in a fleet subclass (e.g. ``AutoscalingFleet``).
    """
    if shape is None:
        if cluster is None:
            raise ValueError("a shape-less fleet needs an explicit cluster")
        specs = [(config, prefill_parallel, decode_parallel)] * (
            cluster.num_nodes * pairs_per_node
        )
    else:
        if cluster is None:
            cluster = cluster_for_shape(shape, pairs_per_node=pairs_per_node)
        if len(shape.members) > cluster.num_nodes * pairs_per_node:
            raise ValueError(
                f"cluster has {cluster.num_nodes} nodes x {pairs_per_node} slots; "
                f"shape has {len(shape.members)} members"
            )
        specs = [
            (
                replace(config, gpu=get_gpu(m.gpu)),
                ParallelConfig(*m.prefill_parallel),
                ParallelConfig(*m.decode_parallel),
            )
            for m in shape.members
        ]
        for i, (member_config, _, _) in enumerate(specs):
            node_gpu = cluster.gpu_spec_of((i // pairs_per_node) * cluster.gpus_per_node)
            if member_config.gpu != node_gpu:
                raise ValueError(
                    f"member {i} wants {shape.members[i].gpu} but node "
                    f"{i // pairs_per_node} hosts {node_gpu.name}"
                )
    ledger = GpuLedger(cluster)
    homes = [i // pairs_per_node for i in range(len(specs))]
    prefill_gpus, decode_gpus = [], []
    for i, (_, p_cfg, d_cfg) in enumerate(specs):
        prefill_gpus.append(ledger.claim(homes[i], p_cfg.num_gpus, f"member {i}'s prefill"))
        if not span_nodes:
            decode_gpus.append(ledger.claim(homes[i], d_cfg.num_gpus, f"member {i}'s decode"))
    if span_nodes:
        for i, (_, _, d_cfg) in enumerate(specs):
            node = (homes[i] + 1) % cluster.num_nodes
            decode_gpus.append(ledger.claim(node, d_cfg.num_gpus, f"member {i}'s decode"))

    sim = Simulator()
    factory = system_factory or partial(WindServeSystem, ws_config=ws_config)
    members: list[ServingSystem] = []
    for i, (member_config, p_cfg, d_cfg) in enumerate(specs):
        placement = bind_placement(cluster, prefill_gpus[i], decode_gpus[i], p_cfg, d_cfg)
        # A shaped member's decode device is whatever its decode node hosts.
        extra = {} if shape is None else {"decode_gpu": cluster.gpu_spec_of(decode_gpus[i][0])}
        member = factory(member_config, placement=placement, topology=cluster, sim=sim, **extra)
        member.name = f"{member.name}-{homes[i]}.{i % pairs_per_node}"
        members.append(member)
    build_fleet = fleet_factory or ServingFleet
    fleet = build_fleet(members, policy=policy)
    fleet.shape = shape
    return fleet
