"""Heartbeat-based failure detection.

The global scheduler cannot observe a crash directly — a real coordinator
only sees missed heartbeats.  :class:`HeartbeatMonitor` ticks at a fixed
interval over the units of a serving system (its instances) or of a fleet
(its members); after ``miss_threshold`` consecutive missed beats it
declares the unit failed — ``system.notice_failure(instance)`` or
``fleet.notice_member_failure(index)`` — which is when routing,
re-queueing, and shedding react.  The window between the crash and the
declaration is exactly the period in which requests can still be routed at
a dead unit — the latency the resilience metrics measure.

The monitor is bounded: it stops ticking after ``until`` so
``Simulator.run_until_idle`` still terminates.
"""

from __future__ import annotations

from repro.faults.targets import scope_of


class HeartbeatMonitor:
    """Declares instance or fleet-member failures from missed heartbeats."""

    def __init__(self, target, interval_s: float, miss_threshold: int) -> None:
        if interval_s <= 0:
            raise ValueError("heartbeat interval must be positive")
        if miss_threshold < 1:
            raise ValueError("miss threshold must be >= 1")
        self.target = target
        self.scope = scope_of(target)
        self.interval_s = interval_s
        self.miss_threshold = miss_threshold
        # Last beat per unit position; a unit not yet heard from counts
        # from the moment the monitor started.
        self._last_beat: dict[int, float] = {}
        self._started_at: float | None = None
        self._until = 0.0

    def start(self, until: float) -> None:
        """Begin ticking; the monitor self-terminates after ``until``."""
        self._until = until
        if self._started_at is not None:
            return
        self._started_at = self.target.sim.now
        self.target.sim.schedule(self.interval_s, self._tick)

    def _tick(self) -> None:
        sim = self.target.sim
        now = sim.now
        watched = self.scope.watch()
        if watched is None:
            return
        units, declared = watched
        down_attr = self.scope.down_attr
        last_beat = self._last_beat
        stale_after = self.miss_threshold * self.interval_s
        for key, unit in enumerate(units):
            if not getattr(unit, down_attr):
                last_beat[key] = now
            elif key not in declared and (
                now - last_beat.get(key, self._started_at) >= stale_after - 1e-12
            ):
                self.scope.notice(key, unit)
        if now + self.interval_s <= self._until + 1e-9:
            sim.schedule(self.interval_s, self._tick)
