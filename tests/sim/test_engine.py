"""Tests for the discrete-event engine."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Event, SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_clock_starts_at_custom_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_callbacks_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 4:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]
        assert sim.now == 4.0

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_call_at_before_now_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.call_at(5.0, lambda: None)

    def test_kwargs_passed_through(self):
        sim = Simulator()
        got = {}
        sim.schedule(1.0, lambda **kw: got.update(kw), x=1, y=2)
        sim.run()
        assert got == {"x": 1, "y": 2}


class TestHorizon:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0

    def test_run_until_resumes(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run()
        assert fired == ["a", "b"]

    def test_event_exactly_at_horizon_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "x")
        sim.run(until=2.0)
        assert fired == ["x"]

    def test_max_events_limits_execution(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_run_until_idle_raises_on_budget_exhaustion(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)

    def test_not_reentrant(self):
        sim = Simulator()

        def reenter():
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()

    def test_return_hooks_run_after_every_stop(self):
        sim = Simulator()
        log = []
        sim.on_return(lambda: log.append(("hook", sim.now)))
        for t in (1.0, 3.0, 5.0):
            sim.call_at(t, log.append, t)
        sim.run(until=2.0)
        sim.run(max_events=1)
        sim.run_until_idle()
        assert log == [1.0, ("hook", 2.0), 3.0, ("hook", 3.0), 5.0, ("hook", 5.0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()
        assert not event.fired

    def test_pending_transitions(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        assert event.pending
        sim.run()
        assert not event.pending and event.fired

    def test_events_processed_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        sim.run()
        assert sim.events_processed == 1


class TestEventOrdering:
    def test_event_lt_by_time_then_seq(self):
        early = Event(1.0, 5, lambda: None, (), {})
        late = Event(2.0, 1, lambda: None, (), {})
        assert early < late
        a = Event(1.0, 1, lambda: None, (), {})
        b = Event(1.0, 2, lambda: None, (), {})
        assert a < b


class TestInlineWindow:
    """What a callback may fold into its own frame (``advance_inline``)."""

    @staticmethod
    def probe(sim: Simulator, at: float, **run) -> tuple[float, float]:
        """The ``inline_window()`` a callback at ``at`` sees."""
        seen = []
        sim.call_at(at, lambda: seen.append(sim.inline_window()))
        sim.run(**run)
        (window,) = seen
        return window

    def test_no_window_outside_run(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        assert sim.inline_window() is None

    def test_window_inside_run(self):
        sim = Simulator()
        windows = []
        sim.schedule(1.0, lambda: windows.append(sim.inline_window()))
        sim.schedule(4.0, lambda: None)
        sim.run(until=10.0, max_events=5)
        # Up to, not onto, the pending event; four more callbacks after
        # the executing one.
        assert windows == [(math.nextafter(4.0, 0.0), 4)]

    def test_horizon_is_until_when_earlier(self):
        sim = Simulator()
        windows = []
        sim.schedule(1.0, lambda: windows.append(sim.inline_window()))
        sim.schedule(4.0, lambda: None)
        sim.run(until=3.0)
        assert windows == [(3.0, math.inf)]

    def test_unbounded_window(self):
        sim = Simulator()
        windows = []
        sim.schedule(1.0, lambda: windows.append(sim.inline_window()))
        sim.run()
        assert windows == [(math.inf, math.inf)]

    def test_tie_with_pending_event_refuses(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        horizon, budget = self.probe(sim, 1.0)
        # An event landing on the pending one's time would fire after it.
        assert horizon == math.nextafter(3.0, 0.0) and budget == math.inf
        assert not 1.0 + 2.0 <= horizon
        assert 1.0 + 1.5 <= horizon

    def test_until_equal_to_target_is_allowed(self):
        sim = Simulator()
        horizon, budget = self.probe(sim, 1.0, until=2.0)
        assert (horizon, budget) == (2.0, math.inf)
        assert 1.0 + 1.0 <= horizon
        assert not 1.0 + 1.5 <= horizon

    def test_max_events_budget_runs_out(self):
        # The executing callback takes the run's only event.
        assert self.probe(Simulator(), 1.0, max_events=1) == (math.inf, 0)
        assert self.probe(Simulator(), 1.0, max_events=2) == (math.inf, 1)

    def test_budget_counts_inline_events(self):
        sim = Simulator()
        folded = []

        def fold():
            while True:
                horizon, budget = sim.inline_window()
                if not (sim.now + 1.0 <= horizon and budget > 0):
                    break
                sim.advance_inline(1.0)
                folded.append(sim.now)

        sim.schedule(0.0, fold)
        sim.run(max_events=4)
        assert folded == [1.0, 2.0, 3.0]
        assert sim.events_processed == 4

    def test_cancelled_event_at_heap_top_is_skipped(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None).cancel()
        sim.schedule(5.0, lambda: None)
        windows = []
        sim.schedule(1.0, lambda: windows.append(sim.inline_window()))
        sim.run(max_events=1)
        assert windows == [(math.nextafter(5.0, 0.0), 0)]


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
def test_property_events_fire_in_nondecreasing_time(delays):
    sim = Simulator()
    times = []
    for d in delays:
        sim.schedule(d, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


@given(
    delays=st.lists(
        st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=30
    ),
    horizon=st.floats(min_value=0, max_value=100, allow_nan=False),
)
def test_property_horizon_split_equals_full_run(delays, horizon):
    """Running in two segments yields the same firing order as one run."""
    full, split = [], []
    sim1 = Simulator()
    for i, d in enumerate(delays):
        sim1.schedule(d, full.append, i)
    sim1.run()

    sim2 = Simulator()
    for i, d in enumerate(delays):
        sim2.schedule(d, split.append, i)
    sim2.run(until=horizon)
    sim2.run()
    assert full == split
