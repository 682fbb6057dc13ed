"""Link-outage windows consulted by the KV transfer engine.

An outage makes a link unusable for a time window: transfers launched into
the window retry with exponential backoff (see
:class:`~repro.kvcache.transfer.KVTransferEngine`).  Windows are installed
up front by the fault injector, so retry schedules are computable
synchronously and deterministically — ``job.finish`` stays valid for every
existing call site.
"""

from __future__ import annotations

from typing import Iterable, Protocol


class _Named(Protocol):  # pragma: no cover - typing aid
    name: str


class LinkFaultModel:
    """Per-link outage windows with point and interval queries."""

    def __init__(self) -> None:
        self._windows: dict[str, list[tuple[float, float]]] = {}

    def add_outage(self, link_name: str, start: float, end: float) -> None:
        if end <= start:
            raise ValueError("outage window must have positive duration")
        self._windows.setdefault(link_name, []).append((start, end))
        self._windows[link_name].sort()

    def is_down(self, time: float, links: Iterable[_Named]) -> bool:
        """True when any of ``links`` is inside an outage window at ``time``."""
        for link in links:
            for start, end in self._windows.get(link.name, ()):
                if start <= time < end:
                    return True
        return False

    def up_after(self, time: float, links: Iterable[_Named]) -> float:
        """Earliest ``t >= time`` at which every link in ``links`` is up."""
        links = list(links)
        t = time
        moved = True
        while moved:
            moved = False
            for link in links:
                for start, end in self._windows.get(link.name, ()):
                    if start <= t < end:
                        t = end
                        moved = True
        return t
