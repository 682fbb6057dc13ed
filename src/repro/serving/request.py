"""Request lifecycle.

A request arrives with a prompt and a (workload-determined) output length.
The prefill pass produces the first output token; every decode iteration
produces one more; the request finishes when ``output_tokens`` have been
generated.  Timestamps recorded along the way feed the TTFT/TPOT metrics
exactly as the paper defines them: TTFT includes prefill queuing, TPOT
includes decode queuing, transfer waits, and swap stalls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional


# -- SLO tiers -----------------------------------------------------------------

#: Request classes, highest scheduling priority first.  ``interactive``
#: traffic (chat front-ends) carries the tightest latency targets and is
#: shed last in degraded mode; ``best_effort`` (batch/offline traffic) is
#: shed first and tolerates the loosest targets.
TIER_INTERACTIVE = "interactive"
TIER_STANDARD = "standard"
TIER_BEST_EFFORT = "best_effort"

TIERS: tuple[str, ...] = (TIER_INTERACTIVE, TIER_STANDARD, TIER_BEST_EFFORT)

#: Tier of every request that never asked for one.  All tier-free runs must
#: behave byte-identically to the pre-tier simulator, so ``standard`` keeps
#: exactly the old flat-cap admission behaviour.
DEFAULT_TIER = TIER_STANDARD

#: Lower rank = higher priority (``TIERS`` order).
TIER_PRIORITY: dict[str, int] = {tier: rank for rank, tier in enumerate(TIERS)}


# -- tenants -------------------------------------------------------------------

#: Tenant of every request that never declared one.  Tenancy is orthogonal
#: to SLO tiers: a tier ranks *how urgent* a request is, a tenant records
#: *whose* it is.  Tenant-free runs must behave — and serialise —
#: byte-identically to pre-tenant recordings, so the default tenant is
#: never written into traces, fingerprints, or golden rows.
DEFAULT_TENANT = "default"


def tier_ordered(requests):
    """Stable sort by SLO tier, highest priority first.

    Recovery and re-routing paths use this so interactive traffic re-queues
    ahead of best-effort after a crash.  The sort is stable: single-tier
    workloads keep their original order exactly (byte-identical goldens).
    """
    return sorted(requests, key=lambda r: TIER_PRIORITY[r.tier])


#: Sort key and feed clock of a workload's arrivals.
arrival_time = attrgetter("arrival_time")


class Phase(enum.Enum):
    """Where a request currently is in the pipeline."""

    WAITING_PREFILL = "waiting-prefill"
    PREFILLING = "prefilling"
    TRANSFERRING = "transferring"
    WAITING_DECODE = "waiting-decode"
    DECODING = "decoding"
    SWAPPED = "swapped"
    MIGRATING = "migrating"
    FINISHED = "finished"
    SHED = "shed"  # rejected by degraded-mode admission control


@dataclass(eq=False, slots=True)
class Request:
    """One inference request and its measured lifecycle.

    ``eq=False`` keeps object identity semantics (and hashability): requests
    are unique stateful entities, and the hot decode path does membership
    tests against lane run queues — field-by-field ``__eq__`` over a dozen
    mutable attributes was the simulator's single largest cost.
    ``slots=True`` keeps a request free of a per-instance ``__dict__``: it
    takes no ad-hoc attributes, and a new lifecycle field needs a reset
    line in :meth:`reset_for_retry`.
    """

    request_id: int
    prompt_tokens: int
    output_tokens: int
    arrival_time: float

    phase: Phase = Phase.WAITING_PREFILL
    prefilled_tokens: int = 0
    prefill_required: int = 0  # tokens the (re)prefill must cover; set in __post_init__
    output_generated: int = 0
    recompute_count: int = 0

    prefill_start: Optional[float] = None
    first_token_time: Optional[float] = None
    decode_queue_enter: Optional[float] = None
    decode_start: Optional[float] = None
    finish_time: Optional[float] = None

    swap_out_count: int = 0
    migration_count: int = 0
    dispatched_prefill: bool = False  # prefill ran on the decode instance
    tier: str = DEFAULT_TIER
    # Owning tenant (workloads/tenants.py).  Free-form name; ``"default"``
    # means the request never declared one and is omitted from traces and
    # fingerprints so tenant-free runs stay byte-identical.
    tenant: str = DEFAULT_TENANT
    # Shared-prefix identity (workloads/prefixes.py): a stable content hash
    # of the system-prompt/few-shot header this prompt starts with, and how
    # many leading prompt tokens it covers.  ``(0, 0)`` means no shared
    # prefix — the default, so prefix-free runs fingerprint identically to
    # pre-prefix recordings.
    prefix_hash: int = 0
    prefix_len: int = 0

    # Lifecycle markers, written by the serving paths while a request is
    # in flight; :meth:`reset_for_retry` puts each back to its default.
    chunk_in_flight: bool = False  # a lane's batch holds a prefill chunk of it
    migrating: bool = False  # the migration manager is moving its KV
    handoff: Optional[tuple] = None  # (ready time, prefill epoch, decode epoch)
    shed_time: Optional[float] = None
    prefix_cached: Optional[int] = None  # cached prefix tokens; None = not looked up
    fs_key: Optional[float] = None  # fair-share WFQ queue key
    fs_start: Optional[float] = None  # fair-share virtual start time
    retries: int = 0

    def __post_init__(self) -> None:
        if self.prompt_tokens < 1:
            raise ValueError("prompt must have at least one token")
        if self.output_tokens < 1:
            raise ValueError("output must have at least one token")
        if self.tier not in TIER_PRIORITY:
            raise ValueError(f"unknown SLO tier {self.tier!r}; known: {TIERS}")
        if not self.tenant or not isinstance(self.tenant, str):
            raise ValueError("tenant must be a non-empty string")
        if self.prefill_required <= 0:
            self.prefill_required = self.prompt_tokens
        if not 0 <= self.prefix_len < self.prompt_tokens:
            raise ValueError(
                "prefix_len must leave at least one uncached prompt token "
                f"(got {self.prefix_len} of {self.prompt_tokens})"
            )
        if self.prefix_len == 0:
            self.prefix_hash = 0  # a zero-length prefix is no prefix

    @property
    def priority(self) -> int:
        """Scheduling rank of this request's tier (lower = more urgent)."""
        return TIER_PRIORITY[self.tier]

    # -- derived state ---------------------------------------------------------

    @property
    def context_tokens(self) -> int:
        """Tokens whose KV is live: prompt plus generated output."""
        return self.prompt_tokens + self.output_generated

    @property
    def remaining_prefill_tokens(self) -> int:
        return self.prefill_required - self.prefilled_tokens

    @property
    def prefill_done(self) -> bool:
        return self.prefilled_tokens >= self.prefill_required

    @property
    def is_recomputing(self) -> bool:
        """True while re-prefilling after a recompute preemption."""
        return self.recompute_count > 0 and not self.prefill_done

    def reset_for_retry(self) -> None:
        """Node failure: all server-side progress is lost; the client
        retries.  The arrival time is preserved — latency metrics charge
        the failure to the request, as the client experiences it."""
        self.phase = Phase.WAITING_PREFILL
        self.prefilled_tokens = 0
        self.prefill_required = self.prompt_tokens
        self.output_generated = 0
        self.prefill_start = None
        self.first_token_time = None
        self.decode_queue_enter = None
        self.decode_start = None
        self.finish_time = None
        self.dispatched_prefill = False
        self.chunk_in_flight = False
        self.migrating = False
        self.handoff = None
        self.shed_time = None
        self.prefix_cached = None
        self.fs_key = None
        self.fs_start = None
        self.retries += 1

    def restart_prefill(self) -> None:
        """Recompute preemption: drop cached KV and schedule a re-prefill
        over the full live context (prompt + tokens generated so far)."""
        self.prefill_required = self.context_tokens
        self.prefilled_tokens = 0
        self.recompute_count += 1
        self.phase = Phase.WAITING_PREFILL

    @property
    def decode_iterations_remaining(self) -> int:
        """Decode steps still needed (prefill emits the first output token)."""
        return self.output_tokens - self.output_generated

    @property
    def finished(self) -> bool:
        return self.phase == Phase.FINISHED

    # -- metrics -----------------------------------------------------------------

    @property
    def ttft(self) -> Optional[float]:
        """Time to first token: arrival -> first token (includes queuing)."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival_time

    @property
    def tpot(self) -> Optional[float]:
        """Time per output token after the first (includes decode queuing)."""
        if self.finish_time is None or self.first_token_time is None:
            return None
        if self.output_tokens <= 1:
            return 0.0
        return (self.finish_time - self.first_token_time) / (self.output_tokens - 1)

    @property
    def decode_queue_delay(self) -> Optional[float]:
        """Time spent between entering the decode queue and first decode step."""
        if self.decode_queue_enter is None or self.decode_start is None:
            return None
        return self.decode_start - self.decode_queue_enter

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Request(id={self.request_id}, prompt={self.prompt_tokens}, "
            f"out={self.output_generated}/{self.output_tokens}, {self.phase.value})"
        )
