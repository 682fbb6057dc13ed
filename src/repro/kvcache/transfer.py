"""KV-cache transfer engine.

Moves KV bytes between serving instances (prefill -> decode hand-off,
rescheduling migrations) and between a GPU and host DRAM (swapping).  KV is
sharded across an instance's GPUs, so an instance-to-instance copy is a set
of pairwise GPU copies; completion is when the slowest pair drains.

Transfers reserve link bandwidth through the topology's FIFO links, so bulk
KV movement, swap traffic, and migrations all contend for the same PCIe
switches — the contention at the heart of the paper's Fig. 1 motivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

from repro.hardware.interconnect import Link
from repro.hardware.topology import NodeTopology, Path
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.links import LinkFaultModel
    from repro.serving.metrics import MetricsCollector
    from repro.sim.trace import TraceLog


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for transfers launched into a link outage."""

    backoff_s: float = 0.02
    multiplier: float = 2.0
    max_retries: int = 8


@dataclass
class TransferJob:
    """One in-flight KV transfer."""

    job_id: int
    nbytes: int
    src_gpus: tuple[int, ...]
    dst_gpus: tuple[int, ...]
    start: float
    finish: float
    kind: str = "kv"
    meta: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.finish - self.start


class KVTransferEngine:
    """Schedules KV copies over the node topology."""

    def __init__(
        self,
        sim: Simulator,
        topology: NodeTopology,
        metrics: Optional["MetricsCollector"] = None,
        trace: Optional["TraceLog"] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self._next_id = 0
        self.failed: list[TransferJob] = []
        # Bytes of every launched (not failed) job, in total and per kind.
        # Jobs are not kept: nothing waits on a callback-free one.
        self.bytes_moved = 0
        self.bytes_by_kind: dict[str, int] = {}
        self.metrics = metrics
        self.trace = trace
        self.retry = RetryPolicy()
        # Installed by the fault injector; None in fault-free runs.
        self.fault_model: Optional["LinkFaultModel"] = None
        # Permanent-failure escalation: kinds whose loss the owning system
        # can absorb get ``on_failure(job)``; everything else (e.g. swaps)
        # stalls until the path recovers instead of failing.
        self.on_failure: Optional[Callable[[TransferJob], None]] = None
        self.failure_kinds: frozenset[str] = frozenset()
        # (src GPUs, dst GPUs) -> each GPU pair's path and the links they
        # use, de-duplicated (see :meth:`_routes`).
        self._route_cache: dict[tuple, tuple[list[Path], list[Link]]] = {}

    # -- planning ---------------------------------------------------------

    def estimate_duration(
        self, nbytes: int, src_gpus: list[int], dst_gpus: list[int]
    ) -> float:
        """Unqueued wire time for an instance-to-instance copy of ``nbytes``."""
        paths, _ = self._routes(src_gpus, dst_gpus)
        per_pair = int(nbytes / len(paths))
        return max(path.transfer_duration(per_pair) for path in paths)

    # -- instance-to-instance ------------------------------------------------

    def transfer(
        self,
        nbytes: int,
        src_gpus: list[int],
        dst_gpus: list[int],
        on_complete: Optional[Callable[[TransferJob], None]] = None,
        kind: str = "kv",
        **meta,
    ) -> TransferJob:
        """Copy ``nbytes`` of sharded KV from one instance's GPUs to another's.

        Bytes split evenly over GPU pairs; each pair's copy queues FIFO on its
        link path.  ``on_complete`` fires when the slowest pair finishes;
        without one, the returned job's ``finish`` is all there is to know
        and no event is scheduled.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        paths, links = self._routes(src_gpus, dst_gpus)
        return self._launch(
            nbytes, paths, links, tuple(src_gpus), tuple(dst_gpus), on_complete, kind, meta
        )

    # -- GPU <-> host (swap) ----------------------------------------------------

    def swap(
        self,
        nbytes: int,
        gpus: list[int],
        on_complete: Optional[Callable[[TransferJob], None]] = None,
        kind: str = "swap",
        **meta,
    ) -> TransferJob:
        """Copy ``nbytes`` between an instance's GPUs and host DRAM."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if not gpus:
            raise ValueError("need at least one GPU")
        paths = [self.topology.host_path(g) for g in gpus]
        links = {link.name: link for path in paths for link in path.links}
        return self._launch(
            nbytes, paths, list(links.values()), tuple(gpus), ("host",), on_complete, kind, meta
        )

    def _launch(
        self,
        nbytes: int,
        paths: list[Path],
        links: list[Link],
        src: tuple,
        dst: tuple,
        on_complete: Optional[Callable[[TransferJob], None]],
        kind: str,
        meta: dict,
    ) -> TransferJob:
        """Split ``nbytes`` evenly over ``paths`` and reserve each once its
        links are up.  Count the bytes; only a callback needs an event."""
        per_path = int(nbytes / len(paths)) if nbytes else 0
        attempt, gave_up = self._resolve_outages(links, kind, meta)
        if gave_up:
            return self._fail_job(nbytes, src, dst, attempt, kind, meta)
        finish, start = attempt, None
        for path in paths:
            res = path.reserve(attempt, per_path)
            finish = max(finish, res.finish)
            start = res.start if start is None else min(start, res.start)
        job = self._make_job(nbytes, src, dst, start or attempt, finish, kind, meta)
        self.bytes_moved += nbytes
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + nbytes
        if on_complete is not None:
            self.sim.call_at(finish, lambda: on_complete(job))
        return job

    # -- outage handling (retry with backoff) -------------------------------------

    def _resolve_outages(self, links: list, kind: str, meta: dict) -> tuple[float, bool]:
        """Walk the retry schedule through any outage windows on ``links``.

        Returns ``(attempt_time, gave_up)``.  The schedule is computed
        synchronously from the installed outage windows, so the returned
        job's ``finish`` is valid immediately — no call site changes.  When
        retries are exhausted, kinds listed in ``failure_kinds`` fail
        permanently (``gave_up=True``); all others stall until the path
        recovers, because nobody could absorb the loss.
        """
        now = self.sim.now
        model = self.fault_model
        if model is None or not model.is_down(now, links):
            return now, False
        policy = self.retry
        attempt, retries = now, 0
        while model.is_down(attempt, links):
            if retries >= policy.max_retries:
                if self.on_failure is not None and kind in self.failure_kinds:
                    self._record_retries(retries, kind, meta)
                    return attempt, True
                attempt = model.up_after(attempt, links)
                if self.metrics is not None:
                    self.metrics.bump("transfer_stalled")
                break
            attempt += policy.backoff_s * policy.multiplier**retries
            retries += 1
        self._record_retries(retries, kind, meta)
        return attempt, False

    def _record_retries(self, retries: int, kind: str, meta: dict) -> None:
        if not retries:
            return
        if self.metrics is not None:
            self.metrics.bump("transfer_retries", retries)
        if self.trace is not None:
            self.trace.emit(
                self.sim.now,
                "transfers",
                "transfer-retry",
                kind=kind,
                retries=retries,
                request_id=meta.get("request_id"),
            )

    def _fail_job(
        self, nbytes: int, src: tuple, dst: tuple, at: float, kind: str, meta: dict
    ) -> TransferJob:
        """Report a permanently failed transfer to the owning system."""
        job = self._make_job(nbytes, src, dst, at, at, kind, meta)
        job.meta["failed"] = True

        def _report() -> None:
            self.failed.append(job)
            if self.metrics is not None:
                self.metrics.bump("transfer_failed")
            assert self.on_failure is not None
            self.on_failure(job)

        self.sim.call_at(at, _report)
        return job

    # -- internals ---------------------------------------------------------------

    def _routes(self, src_gpus: list[int], dst_gpus: list[int]) -> tuple[list[Path], list[Link]]:
        """The paths of an instance-to-instance copy's GPU pairs, in pair
        order, and the links they use, de-duplicated in first-use order.
        Built once per GPU-tuple pair: faults change links in place."""
        key = (tuple(src_gpus), tuple(dst_gpus))
        routes = self._route_cache.get(key)
        if routes is None:
            paths = [self.topology.path(s, d) for s, d in self._pairs(src_gpus, dst_gpus)]
            links = {link.name: link for path in paths for link in path.links}
            routes = self._route_cache[key] = (paths, list(links.values()))
        return routes

    @staticmethod
    def _pairs(src_gpus: list[int], dst_gpus: list[int]) -> list[tuple[int, int]]:
        if not src_gpus or not dst_gpus:
            raise ValueError("source and destination instances need GPUs")
        n = max(len(src_gpus), len(dst_gpus))
        return [(src_gpus[i % len(src_gpus)], dst_gpus[i % len(dst_gpus)]) for i in range(n)]

    def _make_job(
        self,
        nbytes: int,
        src: tuple,
        dst: tuple,
        start: float,
        finish: float,
        kind: str,
        meta: dict,
    ) -> TransferJob:
        job = TransferJob(
            job_id=self._next_id,
            nbytes=nbytes,
            src_gpus=src,
            dst_gpus=dst,
            start=start,
            finish=finish,
            kind=kind,
            meta=meta,
        )
        self._next_id += 1
        return job
