"""Reactive fleet autoscaling (paper §7 future work).

"...the exploration of fine-grained and efficient autoscaling strategies.
We will explore these practical issues in the future."

This module explores the simplest credible strategy on top of
:class:`~repro.core.fleet.ServingFleet`: keep a subset of the fleet's
members *standby* (weights unloaded, GPUs reclaimable), watch the arriving
load, and

* **scale out** when the active members' in-flight load per member exceeds
  a high watermark — paying a ``startup_delay`` (model loading, engine
  warm-up) before the new member takes traffic;
* **scale in** when load per member stays below a low watermark for
  ``SCALE_IN_PATIENCE`` consecutive checks — draining the member (it
  finishes what it has) before standby.

The policy is also *failure-reactive*: when the fleet's heartbeat monitor
declares a member dead, the autoscaler immediately stops counting it as
active capacity and promotes a warm standby replacement of the same
hardware shape (any shape once a re-planner is attached), paying the same
``startup_delay``, rather than running degraded until the watermark loop
happens to notice.  The replacement lag — detection to replacement-ready —
is tracked per promotion.

The interesting trade-off the bench measures: GPU-hours saved vs the SLO
damage done by cold starts during ramps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.fleet import ServingFleet, _member_load
from repro.hardware.gpu import gpu_key
from repro.serving.metrics import MetricsCollector
from repro.serving.request import Request
from repro.serving.system import ServingSystem


class FleetShapeMismatch(RuntimeError):
    """Replacement promotion found only differently-shaped standbys.

    Promoting a standby whose hardware shape differs from the member it
    replaces silently changes fleet capacity; it is allowed only when a
    re-planner is attached (routing and re-planning handle unequal
    hardware).
    """


#: Consecutive low-load readings before a scale-in.
SCALE_IN_PATIENCE = 3


@dataclass
class AutoscalerConfig:
    """Watermarks and timing of the reactive policy."""

    min_active: int = 1
    check_interval: float = 5.0
    startup_delay: float = 30.0  # weight loading + engine warm-up
    scale_out_load: float = 24.0  # in-flight requests per active member
    scale_in_load: float = 4.0


@dataclass
class ScalingEvent:
    time: float
    action: str  # "scale-out" | "scale-in" | "member-ready" | "member-failed" | "member-rejoin"
    member: int
    active_after: int = 0


class AutoscalingFleet(ServingFleet):
    """A fleet whose members can be parked as warm standby capacity."""

    def __init__(
        self,
        members: Sequence[ServingSystem],
        policy: str = "predicted-ttft",
        autoscaler: AutoscalerConfig | None = None,
        initially_active: int | None = None,
    ) -> None:
        super().__init__(members, policy=policy)
        self.autoscaler = autoscaler or AutoscalerConfig()
        if self.autoscaler.min_active < 1:
            raise ValueError("min_active must be >= 1")
        n_active = initially_active if initially_active is not None else len(members)
        if not self.autoscaler.min_active <= n_active <= len(members):
            raise ValueError("initially_active out of range")
        self.active: list[bool] = [i < n_active for i in range(len(members))]
        self._starting: set[int] = set()
        self._low_streak = 0
        self.events: list[ScalingEvent] = []
        self.active_member_time = 0.0  # integral of active members over time
        self.active_gpu_time = 0.0  # integral of active members' GPUs over time
        # GPU-type-weighted billing: integral of active GPU-seconds per
        # device registry key.  Mixed fleets bill an H100 hour as an H100
        # hour, not a generic device hour.
        self.gpu_type_time: Counter = Counter()
        self._last_accounting = 0.0
        self._heartbeat_scheduled = False
        # Active routing candidates, memoised between membership /
        # activation changes (the fleet phase's hot path).
        self._active_cache: Optional[list[int]] = None
        # Replacement promotions in flight: started index -> detection time.
        self._replacing: dict[int, float] = {}

    # -- accounting -------------------------------------------------------

    @property
    def num_active(self) -> int:
        return sum(self.active)

    def _account(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_accounting
        if elapsed == 0.0:
            return
        self.active_member_time += self.num_active * elapsed
        gpu_seconds = 0
        for index, on in enumerate(self.active):
            if not on:
                continue
            for key, count in self.member_gpu_counts(index).items():
                self.gpu_type_time[key] += elapsed * count
                gpu_seconds += count
        self.active_gpu_time += elapsed * gpu_seconds
        self._last_accounting = now

    def gpu_hours_used(self) -> float:
        """Active GPU-seconds, counting each member's own GPUs while active."""
        self._account()
        return self.active_gpu_time

    def merged_metrics(self) -> MetricsCollector:
        merged = super().merged_metrics()
        # Counters are outside the fingerprint surface, so stamping the
        # per-type bill is golden-safe.
        self._account()
        for key in sorted(self.gpu_type_time):
            merged.counters[f"gpu_type_seconds[{key}]"] += self.gpu_type_time[key]
        return merged

    # -- routing restricted to active members --------------------------------

    def _invalidate_eligible(self) -> None:
        super()._invalidate_eligible()
        self._active_cache = None

    def select_member(self, request: Request) -> int:
        candidates = self._active_cache
        if candidates is None:
            candidates = [
                i for i, on in enumerate(self.active) if on and i not in self.failed
            ]
            self._active_cache = candidates
        if not candidates:
            candidates = self.eligible_members()
        return self.router.select(self, candidates, request)

    def submit(self, request: Request) -> int:
        self._ensure_heartbeat()
        return super().submit(request)

    # -- the reactive loop ------------------------------------------------------

    def _ensure_heartbeat(self) -> None:
        if self._heartbeat_scheduled:
            return
        self._heartbeat_scheduled = True
        self.sim.schedule(self.autoscaler.check_interval, self._heartbeat)

    def _heartbeat(self) -> None:
        self._heartbeat_scheduled = False
        self._account()
        cfg = self.autoscaler
        active_members = [m for m, on in zip(self.members, self.active) if on]
        in_flight = sum(_member_load(m) for m in active_members)
        load = in_flight / max(1, self.num_active)

        if load >= cfg.scale_out_load:
            self._low_streak = 0
            self._scale_out()
        elif load <= cfg.scale_in_load:
            self._low_streak += 1
            if self._low_streak >= SCALE_IN_PATIENCE:
                self._low_streak = 0
                self._scale_in()
        else:
            self._low_streak = 0

        if in_flight > 0 or self.sim.pending_events > 1:
            self._ensure_heartbeat()

    def _shape_key(self, index: int) -> tuple:
        """A member's hardware shape: (gpu type, gpu count) per instance."""
        return tuple(
            (gpu_key(instance.gpu), len(instance.gpus))
            for instance in self.members[index].instances
        )

    def _scale_out(self, replacing: Optional[int] = None) -> Optional[int]:
        """Start warming an available standby; returns its index.

        Members declared dead are not standby capacity — scaling out into a
        failed member would route traffic straight back into the failure.
        When ``replacing`` names the dead member being replaced, a standby
        with the *same hardware shape* is preferred; promoting a
        differently-shaped standby is an explicit
        :class:`FleetShapeMismatch` error unless a re-planner is attached —
        mixed fleets must not silently swap an H100 member for an RTX4090
        one.
        """
        standbys = [
            index
            for index, on in enumerate(self.active)
            if not on and index not in self._starting and index not in self.failed
        ]
        if not standbys:
            return None
        choice = standbys[0]
        if replacing is not None:
            wanted = self._shape_key(replacing)
            matched = [i for i in standbys if self._shape_key(i) == wanted]
            if matched:
                choice = matched[0]
            elif self.replanner is None:
                raise FleetShapeMismatch(
                    f"no standby matches the shape of failed member "
                    f"{self.members[replacing].name} ({wanted}); available: "
                    f"{[self._shape_key(i) for i in standbys]} — attach a re-planner"
                )
        self._starting.add(choice)
        self.events.append(
            ScalingEvent(self.sim.now, "scale-out", choice, self.num_active)
        )
        self.sim.schedule(self.autoscaler.startup_delay, self._member_ready, choice)
        return choice

    def _member_ready(self, index: int) -> None:
        self._account()
        self._starting.discard(index)
        detected_at = self._replacing.pop(index, None)
        if index in self.failed:
            # The member died while warming up: try the next standby.
            replacement = self._scale_out()
            if detected_at is not None and replacement is not None:
                self._replacing[replacement] = detected_at
            return
        self.active[index] = True
        self._invalidate_eligible()
        self.events.append(
            ScalingEvent(self.sim.now, "member-ready", index, self.num_active)
        )
        if detected_at is not None:
            self.replacement_lags.append(self.sim.now - detected_at)
            self.metrics.record_fault_event(
                "member-replace", self.members[index].name, self.sim.now
            )
            self.trace.emit(
                self.sim.now,
                "fleet",
                "member-replace",
                member=self.members[index].name,
            )

    def _scale_in(self) -> None:
        if self.num_active <= self.autoscaler.min_active:
            return
        # Park the least-loaded active member; it drains what it has.
        candidates = [i for i, on in enumerate(self.active) if on]
        victim = min(candidates, key=lambda i: _member_load(self.members[i]))
        self._account()
        self.active[victim] = False
        self._invalidate_eligible()
        self.events.append(ScalingEvent(self.sim.now, "scale-in", victim, self.num_active))

    # -- failure reactions -------------------------------------------------------

    def on_member_failure(self, index: int) -> None:
        """A member was declared dead: stop billing it, promote a standby."""
        self._account()
        was_active = self.active[index]
        self.active[index] = False
        self._invalidate_eligible()
        self._starting.discard(index)
        self._replacing.pop(index, None)
        self.events.append(
            ScalingEvent(self.sim.now, "member-failed", index, self.num_active)
        )
        if was_active:
            replacement = self._scale_out(replacing=index)
            if replacement is not None:
                self._replacing[replacement] = self.sim.now

    def on_member_restart(self, index: int) -> None:
        """A crashed member rejoined: it returns as *standby* capacity."""
        self._account()
        self.events.append(
            ScalingEvent(self.sim.now, "member-rejoin", index, self.num_active)
        )
