"""Policy registries and interfaces for the scheduling-policy layer.

WindServe's contribution is *dynamic scheduling policy* (paper §3–§5), but
policy logic used to be smeared across the stack: the fleet router was a
string-dispatched if/elif chain, degraded-mode admission lived inside
``ServingSystem``, and preemption victim selection was welded into
``Instance``.  This package pulls those decision points behind three small
interfaces so a policy change is a new class, not an edit to four
entangled files:

* :class:`RoutingPolicy` — fleet scope: pick a member for each request and
  observe completions/failures;
* :class:`AdmissionPolicy` — system scope: admit, shed, or displace under
  degraded mode;
* :class:`PreemptionPolicy` — instance scope: choose victims when memory
  pressure or higher-priority work needs a running request evicted.

Each interface has a :class:`PolicyRegistry`; implementations register by
name and are looked up by the engine at construction time.  The *default*
implementations are verbatim extractions of the pre-refactor behaviour, so
default-policy runs are byte-identical to the recorded goldens.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.fleet import ServingFleet
    from repro.serving.instance import Instance
    from repro.serving.request import Request
    from repro.serving.system import ServingSystem


class PolicyRegistry:
    """Name -> factory registry for one policy kind.

    Registration order is preserved: ``names()`` feeds CLI ``choices`` and
    the legacy ``ROUTER_POLICIES`` tuple, so defaults-first ordering keeps
    help text and error messages stable.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: dict[str, Callable[..., Any]] = {}

    def register(self, name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        def decorate(factory: Callable[..., Any]) -> Callable[..., Any]:
            if name in self._factories:
                raise ValueError(f"{self.kind} policy {name!r} registered twice")
            factory.policy_name = name  # type: ignore[attr-defined]
            self._factories[name] = factory
            return factory

        return decorate

    def create(self, name: str, **kwargs: Any) -> Any:
        if name not in self._factories:
            raise ValueError(
                f"unknown policy {name!r} for {self.kind}; known: {self.names()}"
            )
        return self._factories[name](**kwargs)

    def names(self) -> tuple[str, ...]:
        return tuple(self._factories)

    def __contains__(self, name: object) -> bool:
        return name in self._factories


# -- interfaces ----------------------------------------------------------------


class RoutingPolicy:
    """Fleet-level routing: pick a member index for each arriving request."""

    name = "base"

    def select(
        self, fleet: "ServingFleet", candidates: Sequence[int], request: "Request"
    ) -> int:
        """Choose one of ``candidates`` (eligible member indices) for
        ``request``.  Must be deterministic given the fleet state."""
        raise NotImplementedError

    def observe_completion(
        self, fleet: "ServingFleet", index: int, request: "Request"
    ) -> None:
        """Hook: ``request`` finished on member ``index``."""

    def observe_failure(self, fleet: "ServingFleet", index: int) -> None:
        """Hook: member ``index`` was declared dead by detection."""


class AdmissionPolicy:
    """System-level degraded-mode admission control.

    ``admit`` returns True when the request should proceed to
    ``system.submit``; returning False means the request is shed (the
    caller records the shed).  A policy may free capacity first — e.g. by
    shedding a queued lower-tier victim or preempting a running one — and
    then admit.
    """

    name = "base"

    def admit(self, system: "ServingSystem", request: "Request") -> bool:
        raise NotImplementedError


class PreemptionPolicy:
    """Instance-level victim selection.

    ``pick_swap_victim`` orders the instance's eligible running requests
    (``instance.swap_candidates``) when KV pressure needs one evicted;
    ``pick_displacement_victim`` picks a running strictly-lower-priority
    request an admission policy may preempt in favour of higher-tier work.
    """

    name = "base"

    def pick_swap_victim(
        self, instance: "Instance", exclude: Optional["Request"] = None
    ) -> Optional["Request"]:
        raise NotImplementedError

    def pick_displacement_victim(
        self, instance: "Instance", rank: int
    ) -> Optional["Request"]:
        """Running strictly-lower-priority victim (tier rank > ``rank``).

        Mirrors the queued-displacement tie-break: lowest tier first, then
        latest arrival, then highest request id — so under pressure the
        preempted population concentrates in the lowest tiers.
        """
        from repro.serving.request import TIER_PRIORITY, Phase

        best: Optional["Request"] = None
        for request in instance.running_requests:
            if request.finished or request.phase is not Phase.DECODING:
                continue
            if TIER_PRIORITY[request.tier] <= rank:
                continue
            if request.migrating:
                continue
            if best is None or (
                TIER_PRIORITY[request.tier],
                request.arrival_time,
                request.request_id,
            ) > (TIER_PRIORITY[best.tier], best.arrival_time, best.request_id):
                best = request
        return best


# -- fingerprint identity ------------------------------------------------------

#: Policy choices that reproduce the pre-policy-layer behaviour.  Runs using
#: only these baselines carry *no* policy component in their fingerprint, so
#: every golden recorded before the layer existed stays byte-identical.
FINGERPRINT_BASELINES = {
    "router": "round-robin",
    "admission": "nested-caps",
    "preemption": "latest-arrived",
}


def policy_identity(**policies: Optional[str]) -> tuple[tuple[str, str], ...]:
    """Sorted (kind, name) pairs for the non-baseline policy choices.

    Baseline (and ``None``) entries are dropped: policy choice is part of a
    run's identity only when it deviates from the recorded default.
    """
    return tuple(
        sorted(
            (kind, name)
            for kind, name in policies.items()
            if name is not None and name != FINGERPRINT_BASELINES.get(kind)
        )
    )
