"""Deterministic fault plans.

A :class:`FaultPlan` is plain data: a named, ordered set of
:class:`FaultEvent` injections.  Built-in plans place their events at
fractions of the workload's arrival horizon, with a small seed-derived
jitter so different seeds exercise different interleavings while the same
``(plan, seed, horizon)`` triple always reproduces the identical schedule —
the property the chaos-golden scenarios pin down.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class FaultKind(enum.Enum):
    """What breaks."""

    INSTANCE_CRASH = "instance-crash"
    LINK_DEGRADE = "link-degrade"
    LINK_OUTAGE = "link-outage"
    STRAGGLER = "straggler"
    HOST_STALL = "host-stall"


@dataclass(frozen=True)
class FaultEvent:
    """One injection: ``kind`` hits ``target`` at ``time`` for ``duration``.

    ``target`` names an instance role (``"prefill"``/``"decode"``), an
    instance by name, or — for link faults — a link group (``"pd"`` for the
    prefill<->decode paths, ``"host:<role>"`` for an instance's swap path).
    ``magnitude`` is kind-specific: a compute-time multiplier for
    stragglers, a bandwidth-efficiency multiplier for degradation.
    """

    kind: FaultKind
    target: str
    time: float
    duration: float
    magnitude: float = 1.0
    extra_latency_s: float = 0.0

    @property
    def end(self) -> float:
        return self.time + self.duration


@dataclass(frozen=True)
class FaultPlan:
    """A named schedule of fault injections."""

    name: str
    events: tuple[FaultEvent, ...] = field(default_factory=tuple)
    seed: int = 0

    @property
    def horizon(self) -> float:
        """Time by which every injected fault has cleared."""
        return max((e.end for e in self.events), default=0.0)

    def describe(self) -> list[dict]:
        return [
            {
                "kind": e.kind.value,
                "target": e.target,
                "time": round(e.time, 6),
                "duration": round(e.duration, 6),
                "magnitude": e.magnitude,
            }
            for e in self.events
        ]


# -- built-in plans -----------------------------------------------------------

# Crashes shorter than the detector's reaction window would clear before any
# recovery logic runs; floor the downtime well above it.
MIN_DOWNTIME_S = 0.75
MIN_LINK_FAULT_S = 0.3


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0x7FFFFFFF, *(ord(c) for c in name)])


def _jitter(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.92, 1.08))


def _none(horizon: float, rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return ()


def _decode_crash(horizon: float, rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (
        FaultEvent(
            FaultKind.INSTANCE_CRASH,
            "decode",
            time=0.35 * horizon * _jitter(rng),
            duration=max(MIN_DOWNTIME_S, 0.25 * horizon),
        ),
    )


def _prefill_crash(horizon: float, rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (
        FaultEvent(
            FaultKind.INSTANCE_CRASH,
            "prefill",
            time=0.35 * horizon * _jitter(rng),
            duration=max(MIN_DOWNTIME_S, 0.2 * horizon),
        ),
    )


def _link_degrade(horizon: float, rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (
        FaultEvent(
            FaultKind.LINK_DEGRADE,
            "pd",
            time=0.3 * horizon * _jitter(rng),
            duration=max(MIN_LINK_FAULT_S, 0.3 * horizon),
            magnitude=0.25,
        ),
    )


def _link_outage(horizon: float, rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (
        FaultEvent(
            FaultKind.LINK_OUTAGE,
            "pd",
            time=0.4 * horizon * _jitter(rng),
            duration=max(MIN_LINK_FAULT_S, 0.12 * horizon),
        ),
    )


def _straggler(horizon: float, rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (
        FaultEvent(
            FaultKind.STRAGGLER,
            "decode",
            time=0.3 * horizon * _jitter(rng),
            duration=max(MIN_LINK_FAULT_S, 0.4 * horizon),
            magnitude=1.8,
        ),
    )


def _host_stall(horizon: float, rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (
        FaultEvent(
            FaultKind.HOST_STALL,
            "host:decode",
            time=0.3 * horizon * _jitter(rng),
            duration=max(MIN_LINK_FAULT_S, 0.3 * horizon),
            magnitude=0.4,
            extra_latency_s=0.002,
        ),
    )


def _mixed(horizon: float, rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (
        FaultEvent(
            FaultKind.STRAGGLER,
            "decode",
            time=0.15 * horizon * _jitter(rng),
            duration=max(MIN_LINK_FAULT_S, 0.2 * horizon),
            magnitude=1.5,
        ),
        FaultEvent(
            FaultKind.LINK_DEGRADE,
            "pd",
            time=0.4 * horizon * _jitter(rng),
            duration=max(MIN_LINK_FAULT_S, 0.15 * horizon),
            magnitude=0.3,
        ),
        FaultEvent(
            FaultKind.INSTANCE_CRASH,
            "decode",
            time=0.65 * horizon * _jitter(rng),
            duration=max(MIN_DOWNTIME_S, 0.2 * horizon),
        ),
    )


_BUILDERS: dict[str, Callable[[float, np.random.Generator], tuple[FaultEvent, ...]]] = {
    "none": _none,
    "decode-crash": _decode_crash,
    "prefill-crash": _prefill_crash,
    "link-degrade": _link_degrade,
    "link-outage": _link_outage,
    "straggler": _straggler,
    "host-stall": _host_stall,
    "mixed": _mixed,
}

FAULT_PLAN_NAMES: tuple[str, ...] = tuple(_BUILDERS)


def build_fault_plan(name: str, horizon: float, seed: int = 0) -> FaultPlan:
    """Instantiate a built-in plan against a workload arrival ``horizon``."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown fault plan {name!r}; known: {FAULT_PLAN_NAMES}")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    events = _BUILDERS[name](horizon, _rng(name, seed))
    return FaultPlan(name=name, events=tuple(sorted(events, key=lambda e: e.time)), seed=seed)


# -- fleet-scope plans ----------------------------------------------------------

# Fleet plans target members ("member:<name-or-index>"), whole nodes
# ("node:<k>" — a correlated crash of every pair touching the node), or the
# per-node RDMA NICs ("nic:<k>").  :class:`~repro.faults.injector.FaultInjector`
# delivers them against a :class:`~repro.core.fleet.ServingFleet`, not a
# single system, so they live in their own registry.


def _member_crash(horizon: float, rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (
        FaultEvent(
            FaultKind.INSTANCE_CRASH,
            "member:1",
            time=0.35 * horizon * _jitter(rng),
            duration=max(MIN_DOWNTIME_S, 0.3 * horizon),
        ),
    )


def _node_crash(horizon: float, rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    # Correlated failure: every member with a GPU on node 1 dies at once.
    return (
        FaultEvent(
            FaultKind.INSTANCE_CRASH,
            "node:1",
            time=0.4 * horizon * _jitter(rng),
            duration=max(MIN_DOWNTIME_S, 0.3 * horizon),
        ),
    )


def _nic_outage(horizon: float, rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (
        FaultEvent(
            FaultKind.LINK_OUTAGE,
            "nic:0",
            time=0.4 * horizon * _jitter(rng),
            duration=max(MIN_LINK_FAULT_S, 0.12 * horizon),
        ),
    )


def _nic_degrade(horizon: float, rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (
        FaultEvent(
            FaultKind.LINK_DEGRADE,
            "nic:0",
            time=0.3 * horizon * _jitter(rng),
            duration=max(MIN_LINK_FAULT_S, 0.3 * horizon),
            magnitude=0.2,
        ),
    )


def _fleet_mixed(horizon: float, rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (
        FaultEvent(
            FaultKind.INSTANCE_CRASH,
            "member:0",
            time=0.2 * horizon * _jitter(rng),
            duration=max(MIN_DOWNTIME_S, 0.2 * horizon),
        ),
        FaultEvent(
            FaultKind.LINK_DEGRADE,
            "nic:0",
            time=0.45 * horizon * _jitter(rng),
            duration=max(MIN_LINK_FAULT_S, 0.2 * horizon),
            magnitude=0.3,
        ),
        FaultEvent(
            FaultKind.INSTANCE_CRASH,
            "node:1",
            time=0.65 * horizon * _jitter(rng),
            duration=max(MIN_DOWNTIME_S, 0.2 * horizon),
        ),
    )


_FLEET_BUILDERS: dict[
    str, Callable[[float, np.random.Generator], tuple[FaultEvent, ...]]
] = {
    "none": _none,
    "member-crash": _member_crash,
    "node-crash": _node_crash,
    "nic-outage": _nic_outage,
    "nic-degrade": _nic_degrade,
    "fleet-mixed": _fleet_mixed,
}

FLEET_FAULT_PLAN_NAMES: tuple[str, ...] = tuple(_FLEET_BUILDERS)


def build_fleet_fault_plan(name: str, horizon: float, seed: int = 0) -> FaultPlan:
    """Instantiate a built-in fleet plan against an arrival ``horizon``."""
    if name not in _FLEET_BUILDERS:
        raise ValueError(
            f"unknown fleet fault plan {name!r}; known: {FLEET_FAULT_PLAN_NAMES}"
        )
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    events = _FLEET_BUILDERS[name](horizon, _rng(f"fleet-{name}", seed))
    return FaultPlan(name=name, events=tuple(sorted(events, key=lambda e: e.time)), seed=seed)
