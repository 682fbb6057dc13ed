"""Fault injection and resilience: chaos scheduling for the simulator.

The subsystem has four parts:

* :mod:`repro.faults.plan` — deterministic, seed-driven :class:`FaultPlan`
  schedules (instance crashes, link degradation/outage, stragglers, host
  stalls) expressed as plain data;
* :mod:`repro.faults.injector` — :class:`FaultInjector` delivers a plan to
  one serving system or a whole fleet as ordinary simulator events (so
  replay and run fingerprints still hold) and starts the heartbeat failure
  detector;
* :mod:`repro.faults.detection` / :mod:`repro.faults.links` — the heartbeat
  monitor and the link-outage window model the transfer engine consults for
  retry-with-backoff;
* :mod:`repro.faults.targets` — the one place a system and a fleet differ:
  how targets resolve to units and links, and the crash, restart and
  failure-notice calls.

Recovery policy itself lives in the serving systems (see
``docs/resilience.md``); this package only produces the faults and the
knowledge of them.
"""

from repro.faults.config import ResilienceConfig, tier_inflight_limit
from repro.faults.detection import HeartbeatMonitor
from repro.faults.injector import FaultInjector
from repro.faults.links import LinkFaultModel
from repro.faults.plan import (
    FAULT_PLAN_NAMES,
    FLEET_FAULT_PLAN_NAMES,
    FaultEvent,
    FaultKind,
    FaultPlan,
    build_fault_plan,
    build_fleet_fault_plan,
)

__all__ = [
    "FAULT_PLAN_NAMES",
    "FLEET_FAULT_PLAN_NAMES",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "HeartbeatMonitor",
    "LinkFaultModel",
    "ResilienceConfig",
    "build_fault_plan",
    "build_fleet_fault_plan",
    "tier_inflight_limit",
]
