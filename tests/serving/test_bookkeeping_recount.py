"""Recount checks for the O(1) decode and admission bookkeeping.

Each :class:`~repro.serving.instance.Lane` keeps an identity set and a
context-token total beside its run list, and each serving system keeps a
per-tier in-flight ledger.  The observer below recounts both from scratch
and compares them with the kept values:

* after every decode iteration, each lane's member set against its
  ``running`` list, and its context total against the members' context
  once their clock tokens are written back (``Lane.sync``);
* at the same points, the instance's KV pool: its used GPU blocks against
  its allocations' blocks plus the blocks the lanes' clocks charged, and
  no charge left once every lane is synced;
* at every admission and route call, and at every ledger read,
  ``in_flight_by_tier()`` against the recount over ``metrics.completed``
  and ``metrics.shed`` it replaced (values and key order).

The wrappers only observe, so the pressure and failure pins run under them
must still match their recordings.  The same pins must also match when
every lane is synced after every simulator event: a reader that saw a
counter the clock had not yet written back would make that run diverge.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.autoscaler import AutoscalingFleet
from repro.core.fleet import ServingFleet
from repro.harness.golden import GOLDEN_MATRIX, check_goldens
from repro.kvcache.blocks import BlockLocation
from repro.policies.base import AdmissionPolicy
from repro.serving.instance import Instance, Lane
from repro.serving.system import ServingSystem
from repro.sim.engine import Simulator
from tests.conftest import search_depth

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: Pins that swap, migrate, crash, shed and re-route.
PINS = (
    "windserve-pressure-r3.5-s3",
    "distserve-pressure-r3.5-s3",
    "windserve-chaos-crash-s1",
    "vllm-chaos-crash-s10",
    "windserve-chaos-tiered-s11",
    "fleet-chaos-mixed-s18",
)


def recount_in_flight_by_tier(submitted_by_tier: dict, metrics) -> dict[str, int]:
    """The per-tier in-flight count as a rescan of every resolved request."""
    in_flight = dict(submitted_by_tier)
    for request in metrics.completed:
        in_flight[request.tier] = in_flight.get(request.tier, 0) - 1
    for request in metrics.shed:
        in_flight[request.tier] = in_flight.get(request.tier, 0) - 1
    return in_flight


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class RecountObserver:
    """Class-level wrappers that recount the kept bookkeeping as a run goes.

    Arrivals are counted per system and tier here, as the system itself
    did before the ledger, so the recount is independent of the ledger.
    """

    def __init__(self) -> None:
        self.submitted: dict[ServingSystem, dict[str, int]] = {}
        self.checks = {"decode": 0, "admit": 0, "route": 0, "read": 0}
        self._saved: list[tuple[type, str, object]] = []

    # -- the checks ------------------------------------------------------------

    def check_lanes(self, instance: Instance) -> None:
        kv = instance.kv
        recorded = sum(alloc.blocks for alloc in kv.residents(BlockLocation.GPU))
        assert kv.used_gpu_blocks == recorded + kv.charged
        for lane in instance.lanes:
            assert len(lane.members) == len(lane.running), "duplicate lane member"
            assert lane.members.keys() == set(lane.running)
            # Members' counters run on the lane's clock: write them back,
            # then the kept total must equal the materialised sum.
            lane.sync()
            assert lane.context_tokens == sum(r.context_tokens for r in lane.running)
        assert kv.charged == 0
        self.checks["decode"] += 1

    def check_ledger(self, system: ServingSystem, ledger=None) -> None:
        if ledger is None:
            ledger = self._read_ledger(system)
        expected = recount_in_flight_by_tier(
            self.submitted.get(system, {}), system.metrics
        )
        assert list(ledger.items()) == list(expected.items())

    # -- installation ------------------------------------------------------------

    def _patch(self, cls: type, name: str, make) -> None:
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        setattr(cls, name, make(original))

    def __enter__(self) -> "RecountObserver":
        observer = self
        self._read_ledger = ServingSystem.in_flight_by_tier

        def decode(original):
            def wrapper(instance, lane, batch):
                original(instance, lane, batch)
                observer.check_lanes(instance)

            return wrapper

        def arrive(original):
            def wrapper(system, request):
                counts = observer.submitted.setdefault(system, {})
                counts[request.tier] = counts.get(request.tier, 0) + 1
                original(system, request)

            return wrapper

        def forget(original):
            def wrapper(system, request):
                counts = observer.submitted.setdefault(system, {})
                counts[request.tier] = counts.get(request.tier, 0) - 1
                original(system, request)

            return wrapper

        def read(original):
            def wrapper(system):
                ledger = original(system)
                observer.check_ledger(system, ledger)
                observer.checks["read"] += 1
                return ledger

            return wrapper

        def admit(original):
            def wrapper(policy, system, request):
                observer.check_ledger(system)
                observer.checks["admit"] += 1
                return original(policy, system, request)

            return wrapper

        def route(original):
            def wrapper(fleet, request):
                for member in fleet.members:
                    observer.check_ledger(member)
                observer.checks["route"] += 1
                return original(fleet, request)

            return wrapper

        self._patch(Instance, "finish_decode_iteration", decode)
        self._patch(ServingSystem, "_arrive", arrive)
        self._patch(ServingSystem, "forget_arrival", forget)
        self._patch(ServingSystem, "in_flight_by_tier", read)
        for cls in _subclasses(AdmissionPolicy):
            if "admit" in cls.__dict__:
                self._patch(cls, "admit", admit)
        for cls in (ServingFleet, AutoscalingFleet):
            if "select_member" in cls.__dict__:
                self._patch(cls, "select_member", route)
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()


@pytest.mark.parametrize("pin", PINS)
def test_recounts_match_on_pin(pin):
    with RecountObserver() as observer:
        (diff,) = check_goldens(GOLDEN_DIR, only=[pin])
    assert diff.passed, "\n".join(diff.messages)
    assert observer.checks["decode"] > 0
    assert observer.checks["admit"] > 0
    if pin.startswith("fleet-"):
        assert observer.checks["route"] > 0
    if "tiered" in pin:
        # Degraded-mode admission reads the ledger once the crash is known.
        assert observer.checks["read"] > 0


def test_recounts_match_on_the_preemptive_run_pin():
    """``run-preemptive`` runs preemptive admission over tier-aware swap
    victims in an 8k-token decode pool.  It is a value pin (the cell's
    summary and counters), not a ``GOLDEN_MATRIX`` trace."""
    with RecountObserver() as observer:
        (diff,) = check_goldens(GOLDEN_DIR, only=["run-preemptive"])
    assert diff.passed, "\n".join(diff.messages)
    assert observer.checks["decode"] > 0
    assert observer.checks["admit"] > 0


@pytest.mark.parametrize("pin", PINS)
def test_pins_match_with_lanes_synced_after_every_event(pin, monkeypatch):
    lanes: list[Lane] = []
    sims: list[Simulator] = []
    synced = {"members": 0, "fired": 0, "inline": 0}

    def sync_all() -> None:
        for lane in lanes:
            synced["members"] += len(lane.running)
            lane.sync()

    def init(seen):
        def make(original):
            def wrapper(obj, *args, **kwargs):
                original(obj, *args, **kwargs)
                seen.append(obj)

            return wrapper

        return make

    def fired(fn):
        def fire(*a, **k):
            synced["fired"] += 1
            fn(*a, **k)
            sync_all()

        return fire

    def call_at(original):
        def wrapper(sim, time, fn, *args, **kwargs):
            return original(sim, time, fired(fn), *args, **kwargs)

        return wrapper

    def feed(original):
        # Fed items (a workload's arrivals) fire without passing call_at.
        def wrapper(sim, items, fn, time_of):
            return original(sim, items, fired(fn), time_of)

        return wrapper

    def advance_inline(original):
        # An inline iteration is an event fired in its predecessor's frame.
        def wrapper(sim, duration):
            synced["inline"] += 1
            sync_all()
            original(sim, duration)

        return wrapper

    for cls, name, make in (
        (Lane, "__init__", init(lanes)),
        (Simulator, "__init__", init(sims)),
        (Simulator, "call_at", call_at),
        (Simulator, "feed", feed),
        (Simulator, "advance_inline", advance_inline),
    ):
        monkeypatch.setattr(cls, name, make(cls.__dict__[name]))
    (diff,) = check_goldens(GOLDEN_DIR, only=[pin])
    assert diff.passed, "\n".join(diff.messages)
    assert synced["members"] > 0
    # Every callback the clocks counted went through one of the
    # wrappers: a loop that moved a clock by other means would skip the
    # syncs above without any pin noticing.
    assert synced["fired"] + synced["inline"] == sum(sim.events_processed for sim in sims)
    assert synced["inline"] > 0


_BASES = {cell.name: cell for cell in GOLDEN_MATRIX if cell.name in PINS}


@settings(max_examples=search_depth(4), deadline=None)
@given(
    pin=st.sampled_from(PINS),
    seed=st.integers(0, 2**16),
    requests=st.integers(12, 40),
)
def test_recounts_match_on_random_variants(pin, seed, requests):
    """The same checks on a pin's scenario at another seed and size."""
    cell = replace(_BASES[pin], name="", seed=seed, num_requests=requests)
    with RecountObserver() as observer:
        cell.run()
    assert observer.checks["admit"] > 0
