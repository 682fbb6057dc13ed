"""Multi-tenant fair-share admission: WFQ, a per-tenant budget, and
token-bucket rate limiting.

Tiers (PR 4) rank *how urgent* a request is; nothing stops one tenant from
monopolising a tier and starving everyone else in it.  ``fair-share``
closes that hole with three independent mechanisms, all deterministic:

* **WFQ virtual-time queueing** (start-time fair queueing).  Each admitted
  request gets a start tag ``S = max(V, F_tenant)`` and a finish tag
  ``F = S + size / weight``; the virtual clock ``V`` advances to the
  largest start tag issued (monotone).  The finish tag is the queue key:
  static keys let the instance's existing tier-ordered insertion sort stay
  the single queue discipline.

* **A per-tenant in-flight budget** enforced at admission,
  *unconditionally* (unlike the degraded-mode nested caps, which only
  engage once a failure is detected).  A tenant over budget sheds its own
  arrivals; everyone else is untouched.

* **Token-bucket rate limiting** at the fleet gateway
  (:class:`TenantRateLimiter`), refilled deterministically from sim time.

The nested tier caps are layered *under* fair-share, not replaced:
``FairShareAdmission`` subclasses ``NestedCapsAdmission`` and runs its
degraded-mode logic after the budget check.  See docs/fair-share.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.policies.admission import ADMISSION_POLICIES, NestedCapsAdmission
from repro.serving.request import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.system import ServingSystem


# -- configuration -------------------------------------------------------------


def _weight_pairs(text: str) -> tuple[tuple[str, float], ...]:
    """Split ``"heavy=1,light=4"`` into weight pairs (same grammar as mixes)."""
    weights = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"cannot parse tenant-weight entry {part!r}; expected tenant=weight"
            )
        tenant, raw = part.split("=", 1)
        tenant = tenant.strip()
        try:
            weight = float(raw)
        except ValueError:
            raise ValueError(f"tenant {tenant!r} has non-numeric weight {raw!r}")
        weights.append((tenant, weight))
    return tuple(weights)


@dataclass(frozen=True)
class FairShareConfig:
    """Knobs of the fair-share discipline.

    All defaults are inert: unit weights and no budget — pure per-tenant
    WFQ.  The budget is *per tenant*: each tenant may hold at most
    ``max_inflight`` unresolved requests at any sim instant.
    """

    weights: tuple[tuple[str, float], ...] = ()
    max_inflight: Optional[int] = None

    def __post_init__(self) -> None:
        seen = set()
        for tenant, weight in self.weights:
            if not tenant:
                raise ValueError("tenant names must be non-empty")
            if tenant in seen:
                raise ValueError(f"tenant {tenant!r} appears twice in the weights")
            if not weight > 0:
                raise ValueError(
                    f"tenant {tenant!r} needs a positive weight, got {weight}"
                )
            seen.add(tenant)
        if self.max_inflight is not None and not self.max_inflight > 0:
            raise ValueError(f"max_inflight must be positive when set, got {self.max_inflight}")

    @classmethod
    def parse_weights(cls, text: str) -> tuple[tuple[str, float], ...]:
        """Parse ``"heavy=1,light=4"`` into validated weight pairs."""
        return cls(weights=_weight_pairs(text)).weights

    def weight_for(self, tenant: str) -> float:
        for name, weight in self.weights:
            if name == tenant:
                return weight
        return 1.0

    def weights_spec(self) -> str:
        return ",".join(f"{tenant}={weight:g}" for tenant, weight in self.weights)

    def spec_string(self) -> str:
        """Compact canonical form, stamped into run fingerprints."""
        parts = []
        if self.weights:
            parts.append(f"w:{self.weights_spec()}")
        if self.max_inflight is not None:
            parts.append(f"inflight:{self.max_inflight}")
        return ";".join(parts) or "wfq"


#: Config used when a system selects ``--admission fair-share`` without
#: tuning anything: pure WFQ over unit weights.
DEFAULT_FAIRSHARE = FairShareConfig()


# -- WFQ virtual clock ---------------------------------------------------------


class FairShareClock:
    """Start-time fair queueing virtual clock (one per serving system).

    :meth:`stamp` issues the queue key (and start tag) for one admitted
    request; :meth:`record_service` advances the virtual clock to the
    start tag of served work.  Advancing ``V`` only at *service* is what
    makes the shares come out weighted: if arrivals advanced it, a
    backlogged tenant would drag ``V`` up to its own runaway finish tags
    and erase the differentiation entirely.  ``virtual_time`` is monotone
    non-decreasing — the property suite checks this over random
    interleavings.
    """

    def __init__(self, config: FairShareConfig = DEFAULT_FAIRSHARE) -> None:
        self.config = config
        self.virtual_time = 0.0
        self._finish: dict[str, float] = {}

    def stamp(self, tenant: str, size: float) -> tuple[float, float]:
        """Issue ``(queue key, start tag)`` for one admitted request."""
        if not size > 0:
            raise ValueError(f"request size must be positive, got {size}")
        start = max(self.virtual_time, self._finish.get(tenant, 0.0))
        finish = start + size / self.config.weight_for(tenant)
        self._finish[tenant] = finish
        return finish, start

    def record_service(self, start: float) -> None:
        """A request with start tag ``start`` was served: advance the clock.

        An idle tenant's stale finish tag eventually falls below ``V``, so
        on return it restarts at the current clock instead of replaying
        its entire idle period as virtual credit.
        """
        if start > self.virtual_time:
            self.virtual_time = start


class FairShareQueue:
    """A standalone min-key queue over :class:`FairShareClock` keys.

    The serving path embeds the keys into the instance's tier-ordered
    waiting queue instead; this container exists so the WFQ discipline
    itself is testable in isolation (Hypothesis property suite:
    monotonicity, weighted shares, no starvation).
    """

    def __init__(self, config: FairShareConfig = DEFAULT_FAIRSHARE) -> None:
        self.clock = FairShareClock(config)
        self._items: list[tuple[float, int, str, float, float]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, tenant: str, size: float) -> float:
        key, start = self.clock.stamp(tenant, size)
        self._items.append((key, self._seq, tenant, size, start))
        self._seq += 1
        return key

    def pop(self) -> tuple[str, float]:
        """Serve the minimum-key request (FIFO on exact ties)."""
        if not self._items:
            raise IndexError("pop from an empty fair-share queue")
        best = min(range(len(self._items)), key=lambda i: self._items[i][:2])
        _, _, tenant, size, start = self._items.pop(best)
        self.clock.record_service(start)
        return tenant, size


# -- token bucket --------------------------------------------------------------


class TokenBucket:
    """Deterministic token bucket: ``rate`` tokens/s, capacity ``burst``.

    Refill is computed lazily from sim time — no timers, no wall clock —
    so replaying the same (now, cost) sequence always yields the same
    admit/deny decisions.
    """

    def __init__(self, rate: float, burst: float) -> None:
        if not rate > 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if not burst > 0:
            raise ValueError(f"burst must be positive, got {burst}")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last_refill = 0.0

    def refill(self, now: float) -> None:
        if now > self.last_refill:
            self.tokens = min(self.burst, self.tokens + (now - self.last_refill) * self.rate)
            self.last_refill = now

    def try_take(self, now: float, cost: float = 1.0) -> bool:
        self.refill(now)
        if self.tokens + 1e-12 >= cost:
            self.tokens -= cost
            return True
        return False


class TenantRateLimiter:
    """Per-tenant token buckets at the fleet gateway.

    Buckets are created lazily (full) on a tenant's first arrival; every
    gateway submit costs one token, and a bucket holds ``max(1, rate)``.
    Attach to a fleet via ``fleet.rate_limiter = TenantRateLimiter(rate)``.
    """

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.burst = max(1.0, rate)
        self.buckets: dict[str, TokenBucket] = {}
        self.denied: dict[str, int] = {}

    def allow(self, request: Request, now: float) -> bool:
        bucket = self.buckets.get(request.tenant)
        if bucket is None:
            bucket = self.buckets[request.tenant] = TokenBucket(self.rate, self.burst)
        if bucket.try_take(now):
            return True
        self.denied[request.tenant] = self.denied.get(request.tenant, 0) + 1
        return False


# -- admission policy ----------------------------------------------------------


@ADMISSION_POLICIES.register("fair-share")
class FairShareAdmission(NestedCapsAdmission):
    """WFQ fair-share admission layered over the nested tier caps.

    Order of checks on every arrival:

    1. **Budget** (unconditional): the arriving tenant's in-flight count
       — including this request — against ``FairShareConfig.max_inflight``.
       Over budget ⇒ shed this arrival (never another tenant's work).
    2. **Nested tier caps** (degraded mode only): the inherited
       ``NestedCapsAdmission`` logic, unchanged.
    3. **Stamp**: the WFQ queue key is written to ``request.fs_key``;
       ``Instance.enqueue`` orders equal-tier work by it.
    """

    name = "fair-share"

    def __init__(self) -> None:
        self._clock: Optional[FairShareClock] = None
        self._wired = False

    def _config(self, system: "ServingSystem") -> FairShareConfig:
        cfg = getattr(system.config, "fairshare", None)
        return cfg if cfg is not None else DEFAULT_FAIRSHARE

    def clock_for(self, system: "ServingSystem") -> FairShareClock:
        if self._clock is None:
            self._clock = FairShareClock(self._config(system))
        return self._clock

    def admit(self, system: "ServingSystem", request: Request) -> bool:
        cfg = self._config(system)
        reason = self._over_budget(system, cfg, request)
        if reason is not None:
            system.metrics.bump("tenant_budget_shed")
            system.metrics.bump(f"tenant_budget_shed[tenant:{request.tenant}]")
            system.trace.emit(
                system.sim.now,
                "admission",
                "budget-shed",
                request_id=request.request_id,
                tenant=request.tenant,
                reason=reason,
            )
            return False
        if not super().admit(system, request):
            return False
        if not self._wired:
            # Completions feed the virtual clock (record_service), so an
            # idle tenant's return is measured against served work, not
            # its own stale finish tags.
            system.finish_listeners.append(self._observe_finish)
            self._wired = True
        size = float(request.prompt_tokens + request.output_tokens)
        request.fs_key, request.fs_start = self.clock_for(system).stamp(request.tenant, size)
        return True

    def _observe_finish(self, request: Request, instance=None) -> None:
        start = request.fs_start
        if start is not None and self._clock is not None:
            self._clock.record_service(start)

    def _over_budget(
        self, system: "ServingSystem", cfg: FairShareConfig, request: Request
    ) -> Optional[str]:
        """Budget violated by this arrival?  Returns the reason or None.

        The system's tenant ledger is bumped before admission runs, so the
        usage numbers already include the arriving request — a strict ``>``
        comparison therefore admits exactly up to the budget.
        """
        count, _ = system.tenant_usage(request.tenant)
        if cfg.max_inflight is not None and count > cfg.max_inflight:
            return "inflight"
        return None


__all__ = [
    "DEFAULT_FAIRSHARE",
    "FairShareAdmission",
    "FairShareClock",
    "FairShareConfig",
    "FairShareQueue",
    "TenantRateLimiter",
    "TokenBucket",
]
