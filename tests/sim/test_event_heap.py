"""Property tests for the tuple-heap event queue.

The optimised engine stores ``(time, seq, Event)`` tuples and tracks
cancelled events by count instead of scanning for tombstones.  Hypothesis
drives random schedule/cancel interleavings — including exact-tie
timestamps — and the pop order must match a straight-line reference
implementation built on nothing but ``heapq`` over ``(time, seq)`` pairs.
"""

from __future__ import annotations

import heapq
import tracemalloc
from math import inf, nextafter
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator
from tests.conftest import search_depth

# One scripted action:
#   ("schedule", delay)    — schedule an event `delay` seconds after *schedule
#                            time* (several identical delays produce exact ties)
#   ("cancel", k)          — cancel the k-th scheduled event (mod count), at
#                            script-interpretation time (before the run)
#   ("late_cancel", k)     — cancel the k-th event from *inside* the first
#                            event that fires after the cancel instruction
DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 7.0])
ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), DELAYS),
        st.tuples(st.just("cancel"), st.integers(0, 30)),
        st.tuples(st.just("late_cancel"), st.integers(0, 30)),
    ),
    min_size=1,
    max_size=60,
)


class ReferenceQueue:
    """The obviously-correct model: heapq of (time, seq), tombstone scan."""

    def __init__(self) -> None:
        self.heap: list[tuple[float, int]] = []
        self.cancelled: set[int] = set()
        self.seq = 0
        self.now = 0.0

    def schedule(self, delay: float) -> int:
        seq = self.seq
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, seq))
        return seq

    def cancel(self, seq: int) -> None:
        self.cancelled.add(seq)

    def drain(self, cancel_plan: dict[int, list[int]]) -> list[tuple[float, int]]:
        """Pop everything live in order; ``cancel_plan[seq]`` lists events to
        cancel while event ``seq`` fires (models in-callback cancellation)."""
        fired = []
        while self.heap:
            time, seq = heapq.heappop(self.heap)
            if seq in self.cancelled:
                continue
            self.now = time
            fired.append((time, seq))
            for victim in cancel_plan.get(seq, ()):  # in-callback cancels
                self.cancelled.add(victim)
        return fired


def _check_pop_order_matches_reference(actions, compact_min_tombstones=None):
    sim = Simulator()
    if compact_min_tombstones is not None:
        # Instance attribute shadows the class constant: compaction now
        # triggers inside these short scripts, exercising the mid-run path.
        sim._COMPACT_MIN_TOMBSTONES = compact_min_tombstones
    reference = ReferenceQueue()

    events = []  # index -> engine Event
    ref_seqs = []  # index -> reference seq
    fired: list[tuple[float, int]] = []
    late_cancels: dict[int, list[int]] = {}  # fire-seq -> [victim indices]
    pending_late: list[int] = []

    def on_fire(index):
        fired.append((sim.now, index))
        for victim in late_cancels.get(index, ()):  # cancel mid-callback
            events[victim].cancel()

    for action, value in actions:
        if action == "schedule":
            index = len(events)
            events.append(sim.schedule(value, on_fire, index))
            ref_seqs.append(reference.schedule(value))
            # Attach any late-cancel requests seen so far to this event.
            if pending_late:
                late_cancels[index] = list(pending_late)
                pending_late.clear()
        elif action == "cancel" and events:
            index = value % len(events)
            events[index].cancel()
            reference.cancel(ref_seqs[index])
        elif action == "late_cancel" and events:
            pending_late.append(value % len(events))

    ref_plan = {
        ref_seqs[fire_index]: [ref_seqs[v] for v in victims]
        for fire_index, victims in late_cancels.items()
    }
    expected = reference.drain(ref_plan)
    sim.run_until_idle()

    assert [(t, ref_seqs[i]) for t, i in fired] == expected
    assert sim.live_events == 0
    assert sim._cancelled_pending >= 0


@settings(max_examples=200, deadline=None)
@given(ACTIONS)
def test_pop_order_matches_reference_heapq(actions):
    _check_pop_order_matches_reference(actions)


@settings(max_examples=200, deadline=None)
@given(ACTIONS)
def test_pop_order_matches_reference_with_mid_run_compaction(actions):
    """Same contract with the compaction threshold low enough that in-callback
    cancellations routinely compact the heap while run() is draining it."""
    _check_pop_order_matches_reference(actions, compact_min_tombstones=2)


@settings(max_examples=100, deadline=None)
@given(ACTIONS, st.floats(0.0, 8.0))
def test_horizon_run_matches_reference(actions, until):
    """run(until=...) fires exactly the reference prefix with time <= until."""
    sim = Simulator()
    reference = ReferenceQueue()
    events, ref_seqs, fired = [], [], []

    def on_fire(index):
        fired.append((sim.now, index))

    for action, value in actions:
        if action == "schedule":
            index = len(events)
            events.append(sim.schedule(value, on_fire, index))
            ref_seqs.append(reference.schedule(value))
        elif events:  # treat both cancel flavours as immediate cancels here
            index = value % len(events)
            events[index].cancel()
            reference.cancel(ref_seqs[index])

    expected = [(t, s) for t, s in reference.drain({}) if t <= until]
    sim.run(until=until)
    assert [(t, ref_seqs[i]) for t, i in fired] == expected
    # Every fired event has time <= until, so run(until) must land the clock
    # exactly on the horizon for repeated run() calls to compose.
    assert sim.now == until


def test_cancellation_count_and_compaction():
    """Mass cancellation triggers compaction without disturbing live order."""
    sim = Simulator()
    fired = []
    live = [sim.schedule(10.0 + i, fired.append, i) for i in range(10)]
    doomed = [sim.schedule(5.0, lambda: fired.append("doomed")) for _ in range(5000)]
    for event in doomed:
        event.cancel()
        event.cancel()  # idempotent: must not double-count
    assert sim.live_events == len(live)
    # Compaction kicked in once tombstones dominated the heap.
    assert sim.pending_events < 5010
    sim.run_until_idle()
    assert fired == list(range(10))


def test_mass_cancel_inside_callback_compacts_without_stranding_events():
    """Regression: _compact() used to rebind self._heap to a fresh list while
    run() kept draining a cached alias of the old one — tombstones were
    re-popped (driving the cancelled count negative) and anything scheduled
    after the compaction landed in the new list and never fired."""
    sim = Simulator()
    sim._COMPACT_MIN_TOMBSTONES = 8
    fired = []
    doomed = [sim.schedule(5.0, fired.append, ("doomed", i)) for i in range(64)]

    def killer():
        fired.append("killer")
        for event in doomed:
            event.cancel()  # crosses the compaction threshold mid-run
        # Scheduled *after* compaction: must land in the heap run() drains.
        sim.schedule(1.0, fired.append, "late")

    sim.schedule(1.0, killer)
    sim.schedule(10.0, fired.append, "survivor")
    sim.run_until_idle()
    assert fired == ["killer", "late", "survivor"]
    assert sim.live_events == 0
    assert sim.pending_events == 0
    assert sim._cancelled_pending == 0


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.run_until_idle()
    event.cancel()  # must not corrupt the tombstone count
    assert fired == ["x"]
    assert sim.live_events == 0
    sim.schedule(1.0, fired.append, "y")
    assert sim.live_events == 1
    sim.run_until_idle()
    assert fired == ["x", "y"]


# -- Simulator.feed ------------------------------------------------------------
#
# ``feed(items, fn, time_of)`` must be indistinguishable from one
# ``call_at(time_of(item), fn, item)`` per item.  The differential test
# plays one random script on two simulators, one feeding and one calling
# ``call_at`` per item, and compares everything a callback can observe.

OFFSETS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5])
FEED = st.lists(OFFSETS, min_size=1, max_size=8)
# Run before the loop starts or from inside a callback (where a 0.0
# schedule is a zero-delay event and a feed starts at ``now``).
OP = st.one_of(
    st.tuples(st.just("schedule"), OFFSETS),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("feed"), FEED),
)
SCRIPTS = st.fixed_dictionaries(
    {
        "first_feed": FEED,
        "setup": st.lists(OP, max_size=10),
        # fire index -> what that callback does
        "plan": st.dictionaries(st.integers(0, 25), st.lists(OP, max_size=3), max_size=10),
        # (until, max_events) of each run() before the final drain
        "splits": st.lists(
            st.tuples(
                st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5])),
                st.one_of(st.none(), st.integers(0, 4)),
            ),
            max_size=4,
        ),
    }
)


def _play(script, use_feed: bool) -> list:
    """Run ``script`` and return everything it could observe, in order."""
    sim = Simulator()
    sim._COMPACT_MIN_TOMBSTONES = 2
    log: list = []
    handles = []  # Events from schedule(), the cancellable ones
    fired = [0]
    feeds = [0]

    def observe(label) -> None:
        log.append(
            ("fire", label, sim.now, sim.pending_events, sim.live_events,
             sim.inline_window(), sim._seq)
        )
        index = fired[0]
        fired[0] += 1
        for op in script["plan"].get(index, ()):
            apply(op)

    def apply(op) -> None:
        kind, value = op
        if kind == "schedule":
            event = sim.schedule(value, observe, ("event", len(handles)))
            handles.append(event)
            log.append(("seq", event.seq))
        elif kind == "cancel" and handles:
            handles[value % len(handles)].cancel()
        elif kind == "feed":
            feed = feeds[0]
            feeds[0] += 1
            items = [
                (("item", feed, i), t)
                for i, t in enumerate(sorted(sim.now + offset for offset in value))
            ]
            if use_feed:
                assert sim.feed(items, lambda item: observe(item[0]), itemgetter(1)) == len(items)
            else:
                for label, time in items:
                    sim.call_at(time, observe, label)
        log.append(("after", kind, sim.pending_events, sim.live_events, sim._seq))

    apply(("feed", script["first_feed"]))
    for op in script["setup"]:
        apply(op)
    for until, max_events in script["splits"]:
        sim.run(until=until, max_events=max_events)
        log.append(("return", sim.now, sim.pending_events, sim.live_events, sim.events_processed))
    sim.run_until_idle()
    log.append(("idle", sim.now, sim.pending_events, sim.live_events, sim.events_processed))
    return log


@settings(max_examples=search_depth(200), deadline=None)
@given(SCRIPTS)
def test_feed_is_indistinguishable_from_call_at_per_item(script):
    """Firing order, handle seqs, the next free seq, ``pending_events``,
    ``live_events`` and ``inline_window()`` read inside every callback
    match, across ties, zero-delay events, cancels with compaction,
    ``until``/``max_events`` splits and several feeds on one simulator."""
    fed = _play(script, use_feed=True)
    assert fed == _play(script, use_feed=False)
    assert sum(1 for entry in fed if entry[0] == "fire") >= len(script["first_feed"])


def test_feed_ties_with_scheduled_events_follow_the_reserved_seqs():
    """Items fed before an event at the same instant fire first; an event
    scheduled earlier at that instant fires before them."""
    sim = Simulator()
    order: list = []
    sim.call_at(1.0, order.append, "before")
    sim.feed(["a", "b", "c"], order.append, lambda item: 1.0)
    sim.call_at(1.0, order.append, "after")
    assert sim.pending_events == 5
    assert len(sim._heap) == 3
    sim.run_until_idle()
    assert order == ["before", "a", "b", "c", "after"]


def test_feed_pushes_the_next_item_before_its_callback_runs():
    sim = Simulator()
    seen = []
    sim.feed([1.0, 2.0], lambda t: seen.append((sim.inline_window(), sim.pending_events)), float)
    sim.run()
    assert seen == [((nextafter(2.0, -inf), inf), 1), ((inf, inf), 0)]


def test_unsorted_feed_is_refused_untouched():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError, match="precedes"):
        sim.feed([1.0, 3.0, 2.0], lambda t: None, float)
    assert (sim.pending_events, len(sim._heap), sim._seq) == (1, 1, 1)


def test_feed_before_now_is_refused():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SimulationError, match="before current time"):
        sim.feed([1.0, 3.0], lambda t: None, float)
    assert sim.pending_events == 0
    assert sim.feed([], lambda t: None, float) == 0


def test_load_workload_fires_unsorted_input_in_time_then_input_order():
    from tests.core.test_windserve import make_system, request

    times = [2.0, 1.0, 0.5, 1.0, 0.5, 2.0, 0.0]
    requests = [request(i, arrival=t) for i, t in enumerate(times)]
    expected = sorted(range(len(times)), key=lambda i: (times[i], i))

    system = make_system()
    order: list = []
    arrive = system._arrive
    system._arrive = lambda r: (order.append((system.sim.now, r.request_id)), arrive(r))
    assert system.load_workload(requests) == len(requests)
    system.sim.run_until_idle()
    assert order == [(times[i], i) for i in expected]
    assert all(r.finished for r in requests)


def test_fleet_load_workload_fires_unsorted_input_in_time_then_input_order():
    from tests.core.test_fleet import make_fleet
    from tests.core.test_windserve import request

    times = [1.5, 0.25, 1.5, 0.25, 0.0]
    requests = [request(i, arrival=t) for i, t in enumerate(times)]
    fleet = make_fleet()
    order: list = []
    submit = fleet.submit
    fleet.submit = lambda r: (order.append(r.request_id), submit(r))
    fleet.run_to_completion(requests)
    assert order == sorted(range(len(times)), key=lambda i: (times[i], i))


def test_loaded_arrivals_hold_little_memory():
    """Loaded-but-unfired arrivals cost a list slot and a float each, and
    only the first sits in the heap (~308 B each as scheduled events)."""
    from tests.core.test_windserve import make_system, request

    n = 10_000
    system = make_system()
    requests = [request(i, arrival=0.001 * (n - i)) for i in range(n)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        system.load_workload(requests)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / n <= 32, f"{held / n:.1f} B per loaded request"
    assert len(system.sim._heap) == 1
    assert system.sim.pending_events == system.sim.live_events == n
