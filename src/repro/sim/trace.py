"""Structured trace log for simulation runs.

Systems emit :class:`TraceRecord` rows (time, component, tag, payload) while
running; the metrics layer and the tests consume them afterwards.  Recording
can be disabled wholesale or restricted to a set of tags to keep long runs
cheap.

Rows are stored as columns.  Every row shape gets one shared *head*, the
tuple ``(component, tag, *payload_keys)`` in call order; a row keeps only
its time (in an ``array('d')``), a pointer to its head and its payload
values (appended to one flat list).  :class:`TraceRecord` objects and
payload dicts are rebuilt on demand, fresh on every read, and the
fingerprint path renders each row straight from the columns through a
per-head renderer (:func:`repro.sim.fingerprint.row_renderer`).
Pure-benchmark runs use the no-trace fast mode (``enabled=False``), which
reduces :meth:`TraceLog.emit` to a single attribute check.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One trace row."""

    time: float
    component: str
    tag: str
    payload: dict[str, Any] = field(default_factory=dict)


class TraceLog:
    """Append-only, columnar log of :class:`TraceRecord` rows.

    ``enabled=False`` turns :meth:`emit` into a no-op; ``tags`` keeps only
    rows with one of those tags.  Times must be Python floats (the
    simulator clock): any other type would render differently once stored
    in the float column, so :meth:`emit` refuses it.
    """

    def __init__(self, enabled: bool = True, tags: Optional[frozenset[str]] = None) -> None:
        self.enabled = enabled
        self.tags = tags
        # Interned row heads: (component, tag, *payload_keys) -> itself.
        self._heads: dict[tuple, tuple] = {}
        # One entry per row, in emit order; a row's payload values sit in
        # _values right after those of the rows before it.
        self._times = array("d")
        self._row_heads: list[tuple] = []
        self._values: list[Any] = []

    def emit(self, time: float, component: str, tag: str, **payload: Any) -> None:
        """Record one row (subject to the enabled flag and tag set)."""
        if not self.enabled:
            return
        if self.tags is not None and tag not in self.tags:
            return
        if type(time) is not float:
            raise TypeError(f"trace time must be a float, got {type(time).__name__}")
        head = (component, tag, *payload)
        self._times.append(time)
        self._row_heads.append(self._heads.setdefault(head, head))
        self._values += payload.values()

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
        return (TraceRecord(*row) for row in self.iter_raw())

    @property
    def records(self) -> list[TraceRecord]:
        """A fresh list of every row; changing it leaves the log alone."""
        return list(self)

    def _rows(self, heads: Optional[set[int]] = None) -> Iterator[tuple]:
        """``(time, component, tag, payload)`` of each row whose head's id is
        in ``heads`` (every row if ``None``); only those get a payload dict."""
        values = self._values
        start = 0
        for time, head in zip(self._times, self._row_heads):
            end = start + len(head) - 2
            if heads is None or id(head) in heads:
                yield time, head[0], head[1], dict(zip(head[2:], values[start:end]))
            start = end

    def iter_raw(self) -> Iterator[tuple[float, str, str, dict[str, Any]]]:
        """Iterate the rows as ``(time, component, tag, payload)`` tuples."""
        return self._rows()

    def filter(
        self,
        tag: Optional[str] = None,
        component: Optional[str] = None,
    ) -> list[TraceRecord]:
        """Rows matching the given tag and/or component."""
        heads = {id(h) for h in self._heads if tag in (None, h[1]) and component in (None, h[0])}
        return [TraceRecord(*row) for row in self._rows(heads)]

    def count(self, tag: str) -> int:
        return sum(1 for head in self._row_heads if head[1] == tag)

    def clear(self) -> None:
        self._heads.clear()
        del self._times[:]
        self._row_heads.clear()
        self._values.clear()

    # -- determinism ---------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable SHA-256 digest of the ordered record stream.

        Two runs of the same scenario with the same seed must produce the
        same fingerprint; see :mod:`repro.sim.fingerprint`.  Rows are
        rendered per head (:func:`~repro.sim.fingerprint.row_renderer`).
        """
        from repro.sim.fingerprint import digest_lines, row_renderer

        renderers = {id(head): row_renderer(head) for head in self._heads}
        values = self._values

        def lines() -> Iterator[str]:
            start = 0
            for time, head in zip(self._times, self._row_heads):
                yield renderers[id(head)](time, values, start)
                start += len(head) - 2

        return digest_lines(lines())

    def to_rows(self) -> list[dict]:
        """Canonical JSON-ready rows (the golden-trace JSONL schema)."""
        from repro.sim.fingerprint import raw_row

        return [raw_row(*row) for row in self._rows()]

