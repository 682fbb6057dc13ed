"""Delivers a :class:`~repro.faults.plan.FaultPlan` as simulator events.

Arming a plan schedules each injection with ``Simulator.call_at``, so fault
timing participates in ordinary event ordering and the run stays
deterministic and fingerprintable.  The target is one serving system or a
whole fleet; its :mod:`~repro.faults.targets` scope resolves event targets
and makes the crash and restart calls (``Instance.fail()`` /
``recover()`` plus the system's crash bookkeeping, or a fleet member's
``crash_member`` / ``restart_member``).  Link faults mutate the links'
parameters (degradation) or install outage windows in every transfer
engine's :class:`~repro.faults.links.LinkFaultModel` (loss).  Arming a
non-empty plan also starts the heartbeat monitor, bounded past the plan
horizon so the drain loop still terminates.
"""

from __future__ import annotations

from repro.faults.config import DETECTION_DELAY_S, HEARTBEAT_INTERVAL_S, HEARTBEAT_MISS_THRESHOLD
from repro.faults.detection import HeartbeatMonitor
from repro.faults.links import LinkFaultModel
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.faults.targets import scope_of


class FaultInjector:
    """Arms one fault plan against a serving system or a fleet."""

    def __init__(self, target, plan: FaultPlan) -> None:
        self.target = target
        self.plan = plan
        self.scope = scope_of(target)
        self.monitor: HeartbeatMonitor | None = None
        # LINK_DEGRADE/HOST_STALL restore state, keyed per event.
        self._saved_links: dict[int, dict[str, tuple[float, float]]] = {}
        self._armed = False

    # -- arming ---------------------------------------------------------------

    def arm(self) -> None:
        """Schedule every injection and start failure detection."""
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        if not self.plan.events:
            return
        sim = self.target.sim
        for index, event in enumerate(self.plan.events):
            if event.kind is FaultKind.INSTANCE_CRASH:
                sim.call_at(event.time, self._crash, event)
                sim.call_at(event.end, self._restart, event)
            elif event.kind is FaultKind.STRAGGLER:
                sim.call_at(event.time, self._apply_straggler, event)
                sim.call_at(event.end, self._clear_straggler, event)
            elif event.kind in (FaultKind.LINK_DEGRADE, FaultKind.HOST_STALL):
                sim.call_at(event.time, self._apply_link_degrade, event, index)
                sim.call_at(event.end, self._clear_link_degrade, event, index)
            elif event.kind is FaultKind.LINK_OUTAGE:
                self._install_outage(event)
                sim.call_at(event.time, self._emit, "fault-inject", event)
                sim.call_at(event.end, self._emit, "fault-clear", event)
            else:  # pragma: no cover - exhaustive over FaultKind
                raise ValueError(f"unhandled fault kind {event.kind}")
        self._start_monitor()

    def _start_monitor(self) -> None:
        self.monitor = HeartbeatMonitor(
            self.target, HEARTBEAT_INTERVAL_S, HEARTBEAT_MISS_THRESHOLD
        )
        until = self.plan.horizon + DETECTION_DELAY_S + 2 * HEARTBEAT_INTERVAL_S
        self.monitor.start(until)

    # -- crash / restart --------------------------------------------------------

    # ``scope.down`` is None for every unit of a halted system: such a unit
    # is neither crashed nor restarted.

    def _crash(self, event: FaultEvent) -> None:
        scope = self.scope
        for unit in scope.units(event.target):
            if scope.down(unit) is False:
                self._emit("fault-inject", event, **scope.tag(unit))
                scope.crash(unit)

    def _restart(self, event: FaultEvent) -> None:
        scope = self.scope
        for unit in scope.units(event.target):
            if scope.down(unit) is True:
                self._emit("fault-clear", event, **scope.tag(unit))
                scope.restart(unit)

    # -- stragglers -------------------------------------------------------------

    def _apply_straggler(self, event: FaultEvent) -> None:
        scope = self.scope
        for unit in scope.units(event.target):
            for instance in scope.instances(unit):
                instance.compute_slowdown = event.magnitude
            self.target.metrics.record_fault_event(
                "straggler", scope.name(unit), self.target.sim.now
            )
        self._emit("fault-inject", event)

    def _clear_straggler(self, event: FaultEvent) -> None:
        scope = self.scope
        for unit in scope.units(event.target):
            for instance in scope.instances(unit):
                instance.compute_slowdown = 1.0
        self._emit("fault-clear", event)

    # -- link degradation / host stalls ----------------------------------------

    def _apply_link_degrade(self, event: FaultEvent, index: int) -> None:
        saved: dict[str, tuple[float, float]] = {}
        for link in self.scope.links(event.target):
            saved[link.name] = (link.efficiency, link.latency_s)
            link.efficiency *= event.magnitude
            link.latency_s += event.extra_latency_s
        self._saved_links[index] = saved
        self.target.metrics.record_fault_event(
            event.kind.value, event.target, self.target.sim.now
        )
        self._emit("fault-inject", event)

    def _clear_link_degrade(self, event: FaultEvent, index: int) -> None:
        saved = self._saved_links.pop(index, {})
        for link in self.scope.links(event.target):
            if link.name in saved:
                link.efficiency, link.latency_s = saved[link.name]
        self._emit("fault-clear", event)

    # -- link outages -----------------------------------------------------------

    def _install_outage(self, event: FaultEvent) -> None:
        links = self.scope.links(event.target)
        # Every fleet member owns its own transfer engine over the shared
        # links; the outage window must be visible to all of them.
        for system in self.scope.systems():
            engine = system.transfers
            if engine.fault_model is None:
                engine.fault_model = LinkFaultModel()
            for link in links:
                engine.fault_model.add_outage(link.name, event.time, event.end)
        self.target.metrics.record_fault_event(event.kind.value, event.target, event.time)

    # -- trace -------------------------------------------------------------------

    def _emit(self, tag: str, event: FaultEvent, **extra) -> None:
        self.target.trace.emit(
            self.target.sim.now,
            self.scope.component,
            tag,
            kind=event.kind.value,
            target=event.target,
            magnitude=event.magnitude,
            **extra,
        )
