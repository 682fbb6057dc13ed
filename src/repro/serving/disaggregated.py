"""The prefill->decode pipeline shared by phase-disaggregated systems.

DistServe and WindServe both split a model into one prefill instance and
one decode instance and move each request's KV between them after its
prefill.  :class:`DisaggregatedSystem` owns what the two share:

* building the prefill/decode pair from a :class:`Placement`, and
  rebuilding a drained pair onto a new one (re-planning);
* the blocking hand-off: a FIFO queue pumped whenever decode KV frees up,
  with head-of-line blocking when the decode instance is full;
* the epoch-checked arrival of each copy: a copy launched before a
  whole-system crash is inert, one whose source crashed mid-flight is torn
  (re-prefill), and one whose destination lost its allocation is deferred
  back into the queue;
* crash recovery: lost decode-side work re-prefills, lost prefill-side
  work re-queues in place, and queued hand-offs die with the prefill pool;
* a hand-off copy that exhausts its retries drops both sides and
  re-prefills.

Subclasses name their two instance classes and add their own routing and
coordination on top (see :mod:`repro.baselines.distserve` and
:mod:`repro.core.windserve`).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.kvcache.transfer import TransferJob
from repro.models.parallelism import ParallelConfig
from repro.serving.instance import Instance
from repro.serving.placement import Placement, plan_pd_placement
from repro.serving.request import Phase, Request, tier_ordered
from repro.serving.system import ServingSystem, SystemConfig


class DisaggregatedSystem(ServingSystem):
    """One prefill instance, one decode instance, a KV hand-off between."""

    prefill_class: type[Instance]
    decode_class: type[Instance]
    #: Transfer kinds whose permanent failure is absorbed by re-prefilling;
    #: swaps stall instead (nothing can replace them).
    failure_kinds = frozenset({"kv-handoff"})

    def __init__(
        self,
        config: SystemConfig,
        placement: Optional[Placement] = None,
        topology=None,
        sim=None,
        prefill_gpu=None,
        decode_gpu=None,
    ) -> None:
        super().__init__(config, topology, sim)
        self._handoffs: deque[Request] = deque()
        self.transfers.failure_kinds = self.failure_kinds
        if placement is None:
            placement = plan_pd_placement(
                self.topology, ParallelConfig(tp=2), ParallelConfig(tp=2)
            )
        self.build_pair(placement, prefill_gpu or config.gpu, decode_gpu or config.gpu)

    def build_pair(self, placement: Placement, prefill_gpu, decode_gpu) -> None:
        """Build the prefill/decode instances on ``placement``.

        A rebuild replaces a drained (crashed) pair: the old instances'
        fully-freed KV ledgers are archived into the new instances'
        ``retired_kv``, so freed-exactly-once audits still see the whole
        allocation history; the old instances are unhooked from the
        simulator, and every queue and failure record is reset.
        """
        old, config = self.instances, self.config
        self.placement = placement
        self.instances = []
        self.prefill_instance = self.register(
            self.prefill_class(
                "prefill",
                self.sim,
                config.model,
                prefill_gpu,
                placement.prefill_parallel,
                placement.prefill_gpus,
                self.metrics,
                self.transfers,
                config.instance,
                trace=self.trace,
            )
        )
        self.decode_instance = self.register(
            self.decode_class(
                "decode",
                self.sim,
                config.model,
                decode_gpu,
                placement.decode_parallel,
                placement.decode_gpus,
                self.metrics,
                self.transfers,
                config.decode_instance_config,
                trace=self.trace,
            )
        )
        for new, dead in zip(self.instances, old):
            new.retired_kv.extend(dead.retired_kv + [dead.kv])
            dead.detach()
        self._handoffs.clear()
        self.known_failed.clear()
        self._orphans.clear()

    def rebuild_placement(self, placement: Placement) -> None:
        """Re-split this pair onto a new placement (re-planning).

        Call between ``crash()`` (which drains the pair: KV freed, queues
        swept, callbacks inert) and ``restart()``.  Fresh prefill and
        decode instances are built on the new placement, on the same GPU
        types (see :meth:`build_pair`).
        """
        if not self.halted:
            raise RuntimeError("rebuild_placement requires a drained (crashed) system")
        self.build_pair(placement, self.prefill_instance.gpu, self.decode_instance.gpu)

    def submit(self, request: Request) -> None:
        self.prefill_instance.enqueue(request)

    # -- blocking KV hand-off ----------------------------------------------------

    def complete_handoff(self, request: Request) -> None:
        """A request's prefill finished: queue its KV copy to the decode side."""
        request.phase = Phase.TRANSFERRING
        self._handoffs.append(request)
        self.pump_handoffs()

    def pump_handoffs(self) -> None:
        """Launch queued copies, in order, while the decode side has room."""
        if self.halted or self.prefill_instance.failed or self.decode_instance.failed:
            return
        prefill, decode = self.prefill_instance, self.decode_instance
        while self._handoffs:
            request = self._handoffs[0]
            if not decode.kv.can_allocate(request.context_tokens):
                self.metrics.bump("handoff_blocked")
                break  # head-of-line blocking until decode KV frees
            self._handoffs.popleft()
            decode.kv.allocate(request.request_id, request.context_tokens)
            # ``prefilled_tokens`` equals ``prompt_tokens`` on a first pass
            # and the full recomputed context after crash recovery.
            nbytes = int(request.prefilled_tokens * self.config.model.kv_bytes_per_token)
            self.transfers.transfer(
                nbytes,
                list(prefill.gpus),
                list(decode.gpus),
                on_complete=lambda job, r=request, se=prefill.epoch, de=decode.epoch, ce=self.crash_epoch: self._handoff_arrive(r, se, de, ce),
                kind="kv-handoff",
                request_id=request.request_id,
                request=request,
                sys_epoch=self.crash_epoch,
            )

    def _stale(self, sys_epoch: Optional[int]) -> bool:
        # Launched before a whole-system crash: the fleet re-owns every
        # request that was in flight here, so the callback must not
        # re-queue it locally (it may already run on another member).
        return sys_epoch is not None and sys_epoch != self.crash_epoch

    def _handoff_arrive(
        self,
        request: Request,
        src_epoch: Optional[int] = None,
        dst_epoch: Optional[int] = None,
        sys_epoch: Optional[int] = None,
    ) -> None:
        if self.halted or request.finished or self._stale(sys_epoch):
            return
        if request.phase is not Phase.TRANSFERRING:
            return  # re-queued by a failure handler while the copy flew
        prefill, decode = self.prefill_instance, self.decode_instance
        if src_epoch is not None and src_epoch != prefill.epoch:
            # The source crashed mid-copy: the decode-side bytes are torn.
            if decode.kv.has(request.request_id):
                decode.kv.free(request.request_id)
            self.metrics.bump("torn_handoff")
            self._requeue_on_prefill(request)
            return
        if decode.failed or (dst_epoch is not None and dst_epoch != decode.epoch):
            # The destination lost its allocation: park in the blocking
            # queue; the transfer re-runs once the instance is back.
            self._handoffs.appendleft(request)
            self.metrics.bump("handoff_deferred")
            self.pump_handoffs()
            return
        if not self._keep_prefill_copy(request):
            self._free_prefill_copy(request)
        prefill.kick()
        request.phase = Phase.WAITING_DECODE
        decode.enqueue(request)

    def _keep_prefill_copy(self, request: Request) -> bool:
        """Whether the prefill side retains the KV after hand-off (no)."""
        return False

    def _free_prefill_copy(self, request: Request) -> None:
        prefill = self.prefill_instance
        if not prefill.failed and prefill.kv.has(request.request_id):
            prefill.kv.free(request.request_id)

    # -- crash recovery ------------------------------------------------------------

    def _reprefill(self, request: Request) -> None:
        request.restart_prefill()
        self._mark_requeued(request)
        self.prefill_instance.enqueue(request)

    def _requeue_on_prefill(self, request: Request) -> None:
        """Re-queue a request whose decode-side KV died: re-prefill it."""
        if not request.finished:
            self._reprefill(request)

    def recover_lost_requests(self, instance, lost: list[Request]) -> None:
        if instance is not self.decode_instance:
            # Prefill-side losses re-prefill in place, highest tier first.
            super().recover_lost_requests(self.prefill_instance, lost)
            return
        # Stable tier order: interactive re-queues ahead of best-effort.
        for request in tier_ordered(lost):
            self._requeue_on_prefill(request)

    def on_instance_crashed(self, instance) -> None:
        if instance is self.prefill_instance:
            # Queued hand-offs lost their only (prefill-side) KV copy.
            while self._handoffs:
                self._stash_orphan(instance, self._handoffs.popleft())

    def after_recovery(self, instance) -> None:
        instance.kick()
        self.prefill_instance.kick()
        self.pump_handoffs()

    def on_transfer_failed(self, job: TransferJob) -> None:
        if self.halted or self._stale(job.meta.get("sys_epoch")):
            return
        request = job.meta.get("request")
        if request is None or request.finished:
            return
        decode = self.decode_instance
        if decode.kv.has(request.request_id):  # a failed instance holds none
            decode.kv.free(request.request_id)
        if not request.prefill_done:
            # A copy overlapped with a prefill pass still running: fall back
            # to the blocking hand-off once the pass ends.
            request.handoff = None
            return
        # The hand-off copy never made it: drop both sides and re-prefill.
        self._free_prefill_copy(request)
        self._reprefill(request)

    def on_request_finished(self, request: Request, instance) -> None:
        # Freed KV may unblock a queued hand-off.
        self.pump_handoffs()

    # -- whole-system failure ------------------------------------------------------

    def crash(self) -> list[Request]:
        lost = {r.request_id: r for r in super().crash()}
        for request in self._handoffs:
            lost.setdefault(request.request_id, request)
        self._handoffs.clear()
        return [r for r in lost.values() if not r.finished]
