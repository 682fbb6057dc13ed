"""Resilience tunables shared by every serving system.

The heartbeat timing and the tier admission fractions are constants; the
degraded-mode in-flight cap, which cells tighten, is a
:class:`ResilienceConfig` field.  KV-transfer retries back off on
:class:`repro.kvcache.transfer.RetryPolicy`'s defaults.

Kept dependency-free so ``serving.system`` can embed a
:class:`ResilienceConfig` in :class:`~repro.serving.system.SystemConfig`
without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass


#: Failure detection: an instance is declared failed after
#: ``HEARTBEAT_MISS_THRESHOLD`` consecutive missed heartbeats ...
HEARTBEAT_INTERVAL_S = 0.05
HEARTBEAT_MISS_THRESHOLD = 3
#: ... so this is the worst-case time from crash to declaration.
DETECTION_DELAY_S = HEARTBEAT_INTERVAL_S * (HEARTBEAT_MISS_THRESHOLD + 1)

#: Priority-aware shedding: each tier's effective in-flight cap is
#: ``degraded_inflight_limit * fraction``.  Ordered highest priority first
#: with non-increasing fractions, so a tier is only ever shed after every
#: lower-priority tier is already being shed (best-effort dropped first,
#: interactive last).  ``standard`` keeps fraction 1.0 — the exact flat
#: cap — so tier-free runs see the plain limit.
TIER_ADMISSION_FRACTIONS: tuple[tuple[str, float], ...] = (
    ("interactive", 1.5),
    ("standard", 1.0),
    ("best_effort", 0.5),
)


@dataclass(frozen=True)
class ResilienceConfig:
    """Degraded-mode knobs.

    Behaviour-neutral in a fault-free run: shedding only happens while an
    instance is known-failed.
    """

    # Degraded mode: while any instance is known-failed, shed new arrivals
    # once the in-flight population exceeds this limit.
    degraded_inflight_limit: int = 96

    def tier_inflight_limit(self, tier: str) -> int:
        """Effective degraded-mode in-flight cap for one tier."""
        return tier_inflight_limit(self.degraded_inflight_limit, tier, TIER_ADMISSION_FRACTIONS)


def tier_inflight_limit(
    limit: int, tier: str, fractions: tuple[tuple[str, float], ...]
) -> int:
    """Pure tier-cap policy: ``floor(limit * fraction)`` for ``tier``.

    Kept free of any object state so property-based tests can drive it
    directly: with non-increasing fractions (as
    :data:`TIER_ADMISSION_FRACTIONS` are), a tighter ``limit`` can never
    shed a higher-priority tier while a lower-priority tier is still
    admitted.
    """
    for name, fraction in fractions:
        if name == tier:
            return int(limit * fraction)
    return int(limit)
