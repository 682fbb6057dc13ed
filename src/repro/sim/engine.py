"""Deterministic discrete-event simulation core.

The engine is intentionally small: a binary heap of timestamped events, a
monotonically advancing clock, and cancellable event handles.  Determinism is
guaranteed by a tie-breaking sequence number, so two events scheduled for the
same instant always fire in scheduling order regardless of heap internals.

Performance notes (the benchmark under ``bench/`` drives millions of
events through this loop):

* Heap entries are ``(time, seq, event)`` tuples, so ordering comparisons
  run entirely in C on floats/ints — ``Event.__lt__`` never fires (``seq``
  is unique, the tuple comparison is decided before the third element).
* Cancelled events stay in the heap as tombstones (a heap delete is
  O(n)), but the simulator keeps an exact count of pending tombstones so
  idle checks are O(1) and the heap is compacted wholesale when tombstones
  dominate, instead of scanning for them.
* :meth:`Simulator.feed` streams a time-sorted batch (a workload's
  arrivals) into the loop: only its earliest unfired item sits in the heap,
  and the rest cost about 16 bytes each (a list slot and a float in an
  ``array('d')``) instead of an ``Event``, a heap tuple and an args tuple
  (~300 bytes).  The batch's seq numbers are reserved up front, so the
  firing order is exactly that of one :meth:`Simulator.call_at` per item.
* :meth:`Simulator.advance_inline` lets a callback fold what would have
  been a chain of schedule→pop→fire cycles into its own stack frame while
  preserving the observable contract — the clock arithmetic, the
  ``events_processed`` count, and the ``max_events`` budget are exactly
  those of the equivalent scheduled event.  See
  :meth:`Simulator.inline_window` for the (conservative) conditions under
  which this is indistinguishable from scheduling.  Its one user is an
  instance's decode run (``serving/instance.py::Instance._decode_run``):
  a lane advances either one scheduled completion event per batch or, for
  consecutive plain decode iterations inside the window, inline.
"""

from __future__ import annotations

import heapq
from array import array
from itertools import islice
from math import inf, nextafter
from operator import gt
from typing import Any, Callable, Iterable, Optional


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulator (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` (or
    :meth:`Simulator.call_at`) and may be cancelled before they fire.  A
    cancelled event stays in the heap but is skipped by the main loop, which
    is cheaper than a heap delete.
    """

    __slots__ = ("time", "seq", "fn", "args", "kwargs", "cancelled", "fired", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., None],
        args: tuple,
        kwargs: Optional[dict],
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent; no-op if already fired."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not cancelled or fired."""
        return not self.cancelled and not self.fired

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"Event(t={self.time:.6f}, seq={self.seq}, fn={getattr(self.fn, '__name__', self.fn)!r}, {state})"


class Simulator:
    """Event-driven simulation clock and scheduler.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.0, my_callback, arg)
        sim.run(until=100.0)

    Callbacks may schedule further events; the loop drains the heap in
    timestamp order until it is empty or the horizon is reached.
    """

    #: Compact the heap when it holds this many tombstones and they
    #: outnumber the live events.
    _COMPACT_MIN_TOMBSTONES = 1024

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # Heap of (time, seq, Event): comparisons stay on the C fast path
        # and never reach the Event object because seq is unique.
        self._heap: list[tuple[float, int, Event]] = []
        # Next free tie-breaking seq; feed() reserves a block of them.
        self._seq = 0
        # Items handed to feed() that are not in the heap yet.
        self._unfed = 0
        self._events_processed = 0
        self._running = False
        self._cancelled_pending = 0
        # Loop state observed by advance_inline (valid only while _running).
        self._run_until: Optional[float] = None
        self._run_max_events: Optional[int] = None
        self._run_executed = 0
        self._return_hooks: list[Callable[[], None]] = []

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still to pop: the heap (cancelled ones
        included) plus fed items not pushed yet, so it reads as if every
        fed item had been scheduled with :meth:`call_at`."""
        return len(self._heap) + self._unfed

    @property
    def live_events(self) -> int:
        """Number of schedulable (not cancelled) events, fed items not
        pushed yet included."""
        return len(self._heap) + self._unfed - self._cancelled_pending

    def digest(self) -> dict:
        """Terminal-state summary folded into run fingerprints.

        Two deterministic runs of the same scenario must agree on the clock
        and on exactly how many callbacks fired; see
        :mod:`repro.sim.fingerprint`.
        """
        return {"now": self._now, "events_processed": self._events_processed}

    def on_return(self, hook: Callable[[], None]) -> None:
        """Call ``hook()`` each time :meth:`run` hands control back.

        Components that keep state lazily inside the loop write it back
        here, so code reading it between runs sees it exact.
        """
        self._return_hooks.append(hook)

    def off_return(self, hook: Callable[[], None]) -> None:
        """Stop calling a hook registered with :meth:`on_return`."""
        self._return_hooks.remove(hook)

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``fn(*args, **kwargs)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        return self.call_at(self._now + delay, fn, *args, **kwargs)

    def call_at(self, time: float, fn: Callable[..., None], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``fn`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} before current time t={self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, kwargs or None, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def feed(
        self, items: Iterable[Any], fn: Callable[[Any], None], time_of: Callable[[Any], float]
    ) -> int:
        """Fire ``fn(item)`` at ``time_of(item)`` for each item, in order.

        Observably the same as ``for item in items: call_at(time_of(item),
        fn, item)``: the items take ``len(items)`` consecutive seq numbers
        now, so ties among them and with other events break as before, and
        :attr:`pending_events`, :attr:`live_events` and
        :meth:`inline_window` read the same at every instant.  Only the
        earliest unfired item is in the heap; when it fires, the next one
        is pushed *before* ``fn`` runs.  The items must be in
        non-decreasing time order and none before :attr:`now`
        (:class:`SimulationError` otherwise); times are kept as floats.
        Fed items cannot be cancelled.  Returns the number of items.
        """
        items = list(items)
        times = array("d", map(time_of, items))
        n = len(items)
        if not n:
            return 0
        if times[0] < self._now:
            raise SimulationError(
                f"cannot feed at t={times[0]:.6f} before current time t={self._now:.6f}"
            )
        if any(map(gt, times, islice(times, 1, None))):
            k = next(k for k in range(1, n) if times[k] < times[k - 1])
            raise SimulationError(
                f"fed item {k} at t={times[k]:.6f} precedes item {k - 1} "
                f"at t={times[k - 1]:.6f}"
            )
        first = self._seq
        self._seq = first + n
        self._unfed += n - 1
        heap = self._heap
        push = heapq.heappush

        def fire(k: int) -> None:
            nxt = k + 1
            if nxt < n:
                self._unfed -= 1
                time, seq = times[nxt], first + nxt
                push(heap, (time, seq, Event(time, seq, fire, (nxt,), None, self)))
            fn(items[k])

        push(heap, (times[0], first, Event(times[0], first, fire, (0,), None, self)))
        return n

    def _note_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`Event.cancel`."""
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= self._COMPACT_MIN_TOMBSTONES
            and self._cancelled_pending * 2 > len(self._heap) + self._unfed
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone from the heap in one O(n) rebuild.

        Mutates the list in place (slice assignment) rather than rebinding
        ``self._heap``: :meth:`run` holds a local alias to the heap while
        looping, and an in-callback cancellation may trigger compaction
        mid-run.  Rebinding would leave the loop draining a stale list while
        new events land in the replacement and never fire.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0

    # -- the loop ------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Stops when the heap is empty, when the next event lies beyond
        ``until``, or after ``max_events`` callbacks.  Returns the clock value
        at exit.  When stopping at a horizon the clock is advanced to
        ``until`` so that repeated ``run`` calls compose.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._run_until = until
        self._run_max_events = max_events
        self._run_executed = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                time, _seq, event = heap[0]
                if event.cancelled:
                    pop(heap)
                    self._cancelled_pending -= 1
                    continue
                if until is not None and time > until:
                    break
                if max_events is not None and self._run_executed >= max_events:
                    break
                pop(heap)
                self._now = time
                event.fired = True
                if event.kwargs is None:
                    event.fn(*event.args)
                else:
                    event.fn(*event.args, **event.kwargs)
                self._events_processed += 1
                self._run_executed += 1
        finally:
            self._running = False
            self._run_until = None
            self._run_max_events = None
        if until is not None and self._now < until:
            while heap and heap[0][2].cancelled:
                pop(heap)
                self._cancelled_pending -= 1
            if not heap or heap[0][0] > until:
                self._now = until
        for hook in self._return_hooks:
            hook()
        return self._now

    def run_until_idle(self, max_events: int = 50_000_000) -> float:
        """Run until no events remain.  ``max_events`` guards runaway loops."""
        self.run(max_events=max_events)
        if self.live_events:
            raise SimulationError(f"event budget of {max_events} exhausted")
        return self._now

    # -- inline advancement --------------------------------------------------

    def inline_window(self) -> Optional[tuple[float, float]]:
        """How far a callback may fold events into its own frame.

        ``None`` outside :meth:`run`; else ``(horizon, budget)``: an inline
        event may land at any time up to ``horizon``, and ``budget`` more
        of them fit the run's ``max_events`` after the executing callback
        (``inf`` if unbounded).  The horizon is the earlier of

        * the run's ``until``, which a scheduled event may land on and
          still fire, and
        * the last float before the earliest live pending event (cancelled
          ones at the heap top are dropped first): a scheduled event would
          carry a *higher* seq than everything already in the heap, so a
          tie goes to the heap.

        The window holds until the callback schedules or cancels an event.
        """
        if not self._running:
            return None
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled_pending -= 1
        horizon = nextafter(heap[0][0], -inf) if heap else inf
        until = self._run_until
        if until is not None and until < horizon:
            horizon = until
        max_events = self._run_max_events
        # The executing callback is not in _run_executed yet (the loop
        # counts it on return).
        if max_events is None:
            return horizon, inf
        return horizon, max_events - self._run_executed - 1

    def advance_inline(self, duration: float) -> None:
        """Advance the clock as if a ``duration``-delayed event just fired.

        Callers must have checked that the event lands inside the
        :meth:`inline_window`: ``now + duration <= horizon`` and
        ``budget > 0``, less one per event folded since.  The clock
        arithmetic (``now + duration``) is bit-identical to :meth:`schedule`
        followed by the loop's ``self._now = event.time``, and the fired
        callback is accounted in ``events_processed`` and against the
        loop's ``max_events`` budget exactly as a real event would be.
        """
        self._now = self._now + duration
        self._events_processed += 1
        self._run_executed += 1
