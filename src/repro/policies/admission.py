"""Degraded-mode admission policies.

``nested-caps`` is the verbatim extraction of the pre-policy-layer
``ServingSystem._should_shed`` / ``_displace_lower_tier`` pair: priority-
aware admission with nested tier caps, displacing *queued* lower-tier work
before dropping a higher-tier arrival.  Default-policy runs reproduce the
recorded goldens byte-for-byte.

``preemptive`` (ROADMAP: preemptive displacement) goes one step further:
when no queued victim exists, it swaps out a *running* strictly-lower-tier
decode (via the instance's existing CPU-swap machinery, the same path
``core/rescheduling.py`` migrations reuse) so an interactive request that
would otherwise shed can be admitted.  The preempted request is not lost —
it sits in the instance's ``swapped`` pool and resumes through the normal
swap-in path, so request conservation holds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.policies.base import AdmissionPolicy, PolicyRegistry
from repro.serving.request import TIER_PRIORITY, Phase, Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.instance import Instance
    from repro.serving.system import ServingSystem

ADMISSION_POLICIES = PolicyRegistry("admission")


@ADMISSION_POLICIES.register("nested-caps")
class NestedCapsAdmission(AdmissionPolicy):
    """Priority-aware degraded-mode admission with nested tier caps."""

    name = "nested-caps"

    def admit(self, system: "ServingSystem", request: Request) -> bool:
        if not self.should_shed(system, request):
            return True
        # A higher-tier arrival over its cap displaces a queued lower-tier
        # request rather than being dropped itself.
        if self.displace_queued(system, request) is not None:
            return True
        return False

    def should_shed(self, system: "ServingSystem", request: Request) -> bool:
        """Each tier sheds at its own effective cap (``degraded_inflight_limit``
        scaled by the tier's admission fraction), and — crucially — a tier's
        in-flight count includes only its own tier and higher-priority tiers.
        Lower-tier backlog therefore cannot crowd out interactive traffic:
        best-effort counts everything (shed first), interactive counts only
        itself (shed last).  In a tier-free run every request is standard, so
        the nested count equals the total and the ``standard`` fraction of
        1.0 reproduces the flat cap exactly."""
        res = system.config.resilience
        if not system.known_failed:
            return False
        rank = TIER_PRIORITY[request.tier]
        in_flight = sum(
            count
            for tier, count in system.in_flight_by_tier().items()
            if TIER_PRIORITY.get(tier, 0) <= rank
        )
        return in_flight > res.tier_inflight_limit(request.tier)

    def displace_queued(
        self, system: "ServingSystem", request: Request
    ) -> Optional[Request]:
        """Evict a queued strictly-lower-priority request in favour of
        ``request``.

        Scans every live instance's waiting queue for requests that have not
        started any work, and picks the lowest-priority one (latest arrival
        breaking ties) so that under a deep degraded-mode backlog the shed
        population concentrates in the lowest tiers regardless of arrival
        order.  With a uniform tier population there is never a strictly
        lower tier queued, so tier-free runs are untouched."""
        rank = TIER_PRIORITY[request.tier]
        victim: Optional[Request] = None
        victim_host: Optional["Instance"] = None
        for instance in system.instances:
            if instance.failed:
                continue
            for queued in instance.waiting:
                if TIER_PRIORITY[queued.tier] <= rank:
                    continue
                if (
                    queued.phase is not Phase.WAITING_PREFILL
                    or queued.prefilled_tokens
                    or queued.output_generated
                ):
                    continue
                if victim is None or (
                    TIER_PRIORITY[queued.tier],
                    queued.arrival_time,
                    queued.request_id,
                ) > (
                    TIER_PRIORITY[victim.tier],
                    victim.arrival_time,
                    victim.request_id,
                ):
                    victim = queued
                    victim_host = instance
        if victim is None:
            return None
        victim_host.waiting.remove(victim)
        system.metrics.bump("shed_displaced")
        system._shed(victim)
        return victim


@ADMISSION_POLICIES.register("preemptive")
class PreemptiveAdmission(NestedCapsAdmission):
    """Nested caps, plus preemption of *running* lower-tier decodes.

    When a higher-tier arrival is over its cap and no untouched queued
    victim exists, swap out a running strictly-lower-tier decode instead of
    shedding the arrival.  The victim keeps its KV (CPU swap), stays
    in-flight, and resumes via the instance's normal swap-in path — so
    preemption conserves requests: preempted work is re-queued or
    completed, never lost.
    """

    name = "preemptive"

    def admit(self, system: "ServingSystem", request: Request) -> bool:
        if not self.should_shed(system, request):
            return True
        if self.displace_queued(system, request) is not None:
            return True
        if self.displace_running(system, request):
            return True
        return False

    def displace_running(self, system: "ServingSystem", request: Request) -> bool:
        """Swap out the lowest-priority running decode below ``request``'s tier.

        Returns True when a victim was preempted (the arrival may then be
        admitted).  Victims are chosen by each instance's preemption policy
        and preempted through ``Instance._swap_out`` — the same CPU-swap
        machinery memory-pressure preemption and stall-free migration use.
        """
        from repro.kvcache.blocks import BlockLocation

        rank = TIER_PRIORITY[request.tier]
        victim: Optional[Request] = None
        victim_host: Optional["Instance"] = None
        for instance in system.instances:
            if instance.failed or instance.halted:
                continue
            candidate = instance.preemption.pick_displacement_victim(instance, rank)
            if candidate is None:
                continue
            if victim is None or (
                TIER_PRIORITY[candidate.tier],
                candidate.arrival_time,
                candidate.request_id,
            ) > (TIER_PRIORITY[victim.tier], victim.arrival_time, victim.request_id):
                victim = candidate
                victim_host = instance
        if victim is None or victim_host is None:
            return False
        kv = victim_host.kv
        if not kv.has(victim.request_id):
            return False
        # The victim's allocation records the blocks its lane's clock
        # charged only once written back (see ``serving.instance.Lane``).
        victim_host.sync()
        alloc = kv.get(victim.request_id)
        if alloc.location is not BlockLocation.GPU or alloc.blocks > kv.free_cpu_blocks:
            return False  # no room to swap the victim's KV to CPU DRAM
        victim_host._swap_out(victim)
        system.metrics.bump("preempt_displaced")
        system.metrics.bump(f"preempt_displaced[{victim.tier}]")
        system.trace.emit(
            system.sim.now,
            "resilience",
            "preempt-displace",
            request_id=victim.request_id,
            tier=victim.tier,
        )
        return True
