"""Fleet routing policies (paper §7 load balancing, plus tier-awareness).

The first three are verbatim extractions of the pre-policy-layer router:

* ``round-robin`` — classic stateless spreading;
* ``least-loaded`` — join the member with the fewest unresolved requests;
* ``predicted-ttft`` — ask each member what the new request's TTFT would
  be and join the cheapest.  WindServe members answer via their
  Coordinator's Profiler; other member types get an analytic
  estimated-seconds score (queued prefill tokens + the new prompt through
  the member's own latency model) so mixed fleets compare commensurable
  numbers — previously non-WindServe members returned a raw request count
  against the WindServe members' seconds.

``tier-aware`` is new (ROADMAP item): interactive and standard traffic
joins the member with the smallest *tier-weighted* load, while best-effort
requests are deliberately routed to the most-loaded member — they absorb
the stragglers, keeping the lightly loaded members fast for interactive
work.  By construction an interactive request is never assigned to a
strictly more-loaded member than a simultaneous best-effort one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.policies.base import PolicyRegistry, RoutingPolicy
from repro.serving.request import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fleet import ServingFleet
    from repro.serving.system import ServingSystem

ROUTING_POLICIES = PolicyRegistry("routing")


def member_load(member: "ServingSystem") -> int:
    """Requests arrived at ``member`` and still unresolved (not done, not shed)."""
    return member.submitted - len(member.metrics.completed) - len(member.metrics.shed)


@ROUTING_POLICIES.register("round-robin")
class RoundRobinRouting(RoutingPolicy):
    """Stateless spreading over the eligible members, in arrival order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select(
        self, fleet: "ServingFleet", candidates: Sequence[int], request: Request
    ) -> int:
        index = candidates[self._next % len(candidates)]
        self._next += 1
        return index


@ROUTING_POLICIES.register("least-loaded")
class LeastLoadedRouting(RoutingPolicy):
    """Join the member with the fewest queued+running requests."""

    name = "least-loaded"

    def select(
        self, fleet: "ServingFleet", candidates: Sequence[int], request: Request
    ) -> int:
        return min(candidates, key=lambda i: member_load(fleet.members[i]))


@ROUTING_POLICIES.register("predicted-ttft")
class PredictedTTFTRouting(RoutingPolicy):
    """Join the member predicting the cheapest TTFT for this request."""

    name = "predicted-ttft"

    def select(
        self, fleet: "ServingFleet", candidates: Sequence[int], request: Request
    ) -> int:
        return min(
            candidates, key=lambda i: self.predicted_ttft(fleet.members[i], request)
        )

    @staticmethod
    def predicted_ttft(member: "ServingSystem", request: Request) -> float:
        """Estimated seconds until the request's first token on ``member``.

        WindServe members answer through the Global Scheduler's Profiler;
        any other member type is scored analytically on the same scale —
        the queued prefill backlog plus the new prompt through the member's
        own prefill latency model, after the busiest lane's current batch
        drains.  (The old fallback returned a raw request *count*, which is
        incommensurable with seconds and mis-ranked mixed fleets.)

        Because every score flows through the member's *own*
        ``LatencyModel``, the ranking stays correct on heterogeneous
        fleets: an H100 member with a deeper queue can still predict a
        cheaper TTFT than an idle-ish A800, and it will win the request.
        """
        from repro.core.windserve import WindServeSystem

        if isinstance(member, WindServeSystem):
            return member.coordinator.predict_ttft(request)
        prefill_capable = (
            [member.prefill_instance]
            if hasattr(member, "prefill_instance")
            else member.instances
        )
        now = member.sim.now
        best = float("inf")
        for instance in prefill_capable:
            if instance.failed or instance.name in member.known_failed:
                continue
            busy = [lane.busy_until - now for lane in instance.lanes if lane.busy]
            remaining = max(0.0, min(busy)) if busy else 0.0
            tokens = instance.queued_prefill_tokens() + request.prompt_tokens
            best = min(best, remaining + instance.latency.prefill(tokens).duration)
        if best == float("inf"):
            # Every instance is down; fall back to relative load so routing
            # still makes a deterministic choice.
            return float(member_load(member))
        return best


@ROUTING_POLICIES.register("tier-aware")
class TierAwareRouting(RoutingPolicy):
    """Tier-weighted load balancing (ROADMAP: tier-aware routing).

    Each member's load is the tier-weighted count of its unresolved
    requests — interactive work counts triple, standard double, best-effort
    single — so a member busy with interactive traffic looks *heavier* than
    one holding the same number of best-effort requests.  Interactive and
    standard arrivals join the lightest member; best-effort arrivals join
    the heaviest (they absorb the stragglers), which keeps the light
    members fast for the latency-sensitive tiers.

    On heterogeneous fleets the count alone mis-ranks unequal hardware, so
    the weighted count is scaled into estimated *seconds* by the member's
    own service scale — the time its prefill latency model needs for a
    reference prompt.  An H100 holding six requests can genuinely be
    "lighter" than an A800 holding four.  On homogeneous fleets every
    member shares one scale, so the ordering (ties included) is exactly
    the pre-scale ordering and old goldens keep their digests.
    """

    name = "tier-aware"

    #: Relative weight of one unresolved request, per tier.  Unknown tiers
    #: weigh like ``standard``.
    TIER_WEIGHTS = {"interactive": 3.0, "standard": 2.0, "best_effort": 1.0}

    #: Prompt length the service scale prices (one mid-size prefill).
    REFERENCE_TOKENS = 512

    def __init__(self) -> None:
        # Latency-model object -> its reference prefill seconds.  Keyed by
        # the model instance itself (a replan rebuilds instances, so the
        # new latency model re-prices automatically); the model reference
        # in the value pins it against id() reuse.
        self._scales: dict[int, tuple[object, float]] = {}

    def service_scale(self, member: "ServingSystem") -> float:
        """Seconds this member's hardware needs for a reference prefill.

        Members without instances (stubs, fully-degraded systems) scale
        by 1.0 — the score falls back to the pure tier-weighted count.
        """
        instance = getattr(member, "prefill_instance", None)
        if instance is None:
            instances = getattr(member, "instances", None)
            instance = instances[0] if instances else None
        if instance is None:
            return 1.0
        latency = instance.latency
        cached = self._scales.get(id(latency))
        if cached is None or cached[0] is not latency:
            cached = (latency, latency.prefill(self.REFERENCE_TOKENS).duration)
            self._scales[id(latency)] = cached
        return cached[1]

    def weighted_load(self, member: "ServingSystem") -> float:
        count = sum(
            self.TIER_WEIGHTS.get(tier, 2.0) * n
            for tier, n in member.in_flight_by_tier().items()
        )
        return count * self.service_scale(member)

    def select(
        self, fleet: "ServingFleet", candidates: Sequence[int], request: Request
    ) -> int:
        if request.tier == "best_effort":
            return max(candidates, key=lambda i: self.weighted_load(fleet.members[i]))
        return min(candidates, key=lambda i: self.weighted_load(fleet.members[i]))


@ROUTING_POLICIES.register("prefix-affinity")
class PrefixAffinityRouting(RoutingPolicy):
    """KV-locality-aware routing (ROADMAP: prefix caching + affinity).

    The router keeps a per-member LRU estimate of which shared prefixes are
    warm there — the same shape as llmserve's prefix-awareness estimator.
    A request carrying a ``prefix_hash`` joins the least-loaded member
    believed to hold that prefix warm; with no warm member (or no shared
    prefix at all) it falls back to plain least-loaded, and the chosen
    member is optimistically marked warm — it is about to compute and
    publish the prefix.  ``observe_completion`` refreshes the estimate from
    ground truth; ``observe_failure`` forgets a crashed member's whole warm
    set (its KV pool, cache included, died with it).

    Pure estimator state: the router never inspects member caches, so it
    composes with any member type — and its predictions degrade gracefully
    to least-loaded when caching is disabled member-side.
    """

    name = "prefix-affinity"

    #: Distinct prefixes remembered per member before LRU forgetting.
    WARM_CAPACITY = 256

    def __init__(self) -> None:
        # member index -> ordered set of prefix hashes, LRU first.
        self._warm: dict[int, dict[int, None]] = {}

    def _touch(self, index: int, prefix_hash: int) -> None:
        warm = self._warm.setdefault(index, {})
        warm.pop(prefix_hash, None)
        warm[prefix_hash] = None
        while len(warm) > self.WARM_CAPACITY:
            del warm[next(iter(warm))]

    def select(
        self, fleet: "ServingFleet", candidates: Sequence[int], request: Request
    ) -> int:
        prefix_hash = request.prefix_hash
        if prefix_hash:
            warm = [i for i in candidates if prefix_hash in self._warm.get(i, ())]
            if warm:
                choice = min(warm, key=lambda i: member_load(fleet.members[i]))
                self._touch(choice, prefix_hash)
                return choice
        choice = min(candidates, key=lambda i: member_load(fleet.members[i]))
        if prefix_hash:
            self._touch(choice, prefix_hash)
        return choice

    def observe_completion(
        self, fleet: "ServingFleet", index: int, request: Request
    ) -> None:
        if request.prefix_hash:
            self._touch(index, request.prefix_hash)

    def observe_failure(self, fleet: "ServingFleet", index: int) -> None:
        # The crashed member's KV pool — warm prefixes included — is gone.
        self._warm.pop(index, None)
