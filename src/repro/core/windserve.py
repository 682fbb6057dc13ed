"""WindServe: the assembled system.

Wires the Global Scheduler (Profiler + Coordinator), the WindServe prefill
and decode instances, asynchronous layer-overlapped KV hand-off, KV
backups, and the stall-free migration manager into one serving system with
the same outer interface as the baselines.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import (
    BACKUP_DECODE_PRESSURE_FRAC,
    BACKUP_PREFILL_FREE_FRAC,
    WindServeConfig,
)
from repro.core.coordinator import Coordinator, Route
from repro.core.instances import WindServeDecodeInstance, WindServePrefillInstance
from repro.core.profiler import Profiler
from repro.core.rescheduling import MigrationManager
from repro.serving.disaggregated import DisaggregatedSystem
from repro.serving.placement import Placement
from repro.serving.request import Phase, Request
from repro.serving.system import SystemConfig

# Assist budget used when no TPOT SLO is configured to derive one from.
DEFAULT_ASSIST_BUDGET_TOKENS = 2048


class WindServeSystem(DisaggregatedSystem):
    """Phase-disaggregated serving with stream-based dynamic scheduling."""

    name = "windserve"
    prefill_class = WindServePrefillInstance
    decode_class = WindServeDecodeInstance
    failure_kinds = frozenset(
        {"kv-handoff", "kv-async", "migration-bulk", "migration-residual"}
    )

    def __init__(
        self,
        config: SystemConfig,
        ws_config: Optional[WindServeConfig] = None,
        placement: Optional[Placement] = None,
        topology=None,
        sim=None,
        prefill_gpu=None,
        decode_gpu=None,
    ) -> None:
        self.ws_config = ws_config or WindServeConfig()
        super().__init__(config, placement, topology, sim, prefill_gpu, decode_gpu)

    def build_pair(self, placement: Placement, prefill_gpu, decode_gpu) -> None:
        # The Global Scheduler machinery is rebuilt around every new pair.
        super().build_pair(placement, prefill_gpu, decode_gpu)
        self.prefill_profiler = Profiler(self.prefill_instance.latency)
        self.decode_profiler = Profiler(self.decode_instance.latency)
        self.assist_budget_tokens = self._derive_assist_budget()
        self.coordinator = Coordinator(self)
        self.migrations = MigrationManager(self)
        self.backups: dict[int, int] = {}

    def _derive_assist_budget(self) -> int:
        slo = self.config.slo
        if slo is None:
            return DEFAULT_ASSIST_BUDGET_TOKENS
        return self.decode_profiler.find_assist_budget(
            self.decode_instance.contention,
            slo.tpot,
            reference_batch=16,
            reference_context=self.config.model.max_context // 2,
        )

    # -- routing (Algorithm 1) ----------------------------------------------

    def submit(self, request: Request) -> None:
        route = self.coordinator.route_new_request(request)
        # The truth-level ``failed`` guard models the allocation RPC failing
        # fast even before the heartbeat monitor declares the instance dead.
        if route is Route.ASSIST and not self.decode_instance.failed:
            # KV for the dispatched prefill is written directly into the
            # decode instance — no hand-off transfer later.
            self.decode_instance.kv.allocate(request.request_id, request.prompt_tokens + 1)
            self.decode_instance.assist.submit(request)
        else:
            super().submit(request)

    # -- asynchronous KV hand-off ----------------------------------------------

    def prepare_async_handoff(self, request: Request) -> bool:
        """Start the prefill->decode KV copy overlapped with the prefill pass.

        Returns True when the transfer was launched (decode KV reserved);
        False falls back to the post-prefill blocking hand-off.
        """
        if not self.ws_config.async_transfer:
            return False
        if self.decode_instance.failed:
            return False  # cannot reserve KV on a dead instance
        # ``prefill_required`` equals ``prompt_tokens`` on the first pass and
        # the full live context on a post-crash recompute.
        needed = request.prefill_required + 1
        if not self.decode_instance.kv.can_allocate(needed):
            self.metrics.bump("async_handoff_unavailable")
            return False
        self.decode_instance.kv.allocate(request.request_id, needed)
        nbytes = int(request.prefill_required * self.config.model.kv_bytes_per_token)
        job = self.transfers.transfer(
            nbytes,
            list(self.prefill_instance.gpus),
            list(self.decode_instance.gpus),
            kind="kv-async",
            request_id=request.request_id,
            request=request,
            sys_epoch=self.crash_epoch,
        )
        # The last layer's KV can only ship after the pass finishes.
        residual = self._residual_transfer_time(nbytes)
        request.handoff = (
            job.finish + residual,
            self.prefill_instance.epoch,
            self.decode_instance.epoch,
        )
        self.metrics.bump("async_handoff")
        return True

    def _residual_transfer_time(self, nbytes: int) -> float:
        per_layer = max(1, nbytes // self.config.model.num_layers)
        return self.transfers.estimate_duration(
            per_layer,
            list(self.prefill_instance.gpus),
            list(self.decode_instance.gpus),
        )

    def complete_handoff(self, request: Request) -> None:
        """Called when a request's prefill finishes on the prefill instance."""
        state, request.handoff = request.handoff, None
        if state is None:
            super().complete_handoff(request)
            return
        request.phase = Phase.TRANSFERRING
        ready, src_epoch, dst_epoch = state
        at = max(self.sim.now, ready)
        self.sim.call_at(
            at, self._handoff_arrive, request, src_epoch, dst_epoch, self.crash_epoch
        )

    # -- crash recovery ---------------------------------------------------------

    def _requeue_on_prefill(self, request: Request) -> None:
        """Re-queue a request whose decode-side KV died.

        Exploits §3.3 backups: when the prefill instance still holds the
        prompt KV, only the tokens generated since hand-off are recomputed
        (the request re-enters the prefilling set with its backup extended);
        otherwise the full context re-prefills from the prompt.
        """
        if request.finished:
            return
        request.chunk_in_flight = False
        request.handoff = None
        request.migrating = False
        prefill = self.prefill_instance
        backed = self.backups.pop(request.request_id, 0)
        if backed and not prefill.failed and prefill.kv.has(request.request_id):
            request.prefill_required = request.context_tokens
            request.prefilled_tokens = min(backed, request.context_tokens)
            request.recompute_count += 1
            request.phase = Phase.PREFILLING
            prefill.prefilling.append(request)
            self.metrics.bump("backup_restore")
        else:
            request.restart_prefill()
            # Parks in the waiting queue if the prefill instance is also
            # down; drains at its recovery.
            prefill.waiting.append(request)
        self._mark_requeued(request)
        prefill.kick()

    def _reset_for_requeue(self, request: Request) -> None:
        if request.handoff is not None and self.decode_instance.kv.has(
            request.request_id
        ):
            # An async hand-off was mid-flight when the source died:
            # release the decode-side reservation (the bytes are torn).
            self.decode_instance.kv.free(request.request_id)
        super()._reset_for_requeue(request)

    def on_instance_crashed(self, instance) -> None:
        for request in self.migrations.handle_instance_failure(instance):
            self._stash_orphan(instance, request)
        if instance is self.prefill_instance:
            # Backup KV died with the pool.
            self.backups.clear()
        super().on_instance_crashed(instance)

    def on_transfer_failed(self, job) -> None:
        if job.kind not in ("migration-bulk", "migration-residual"):
            super().on_transfer_failed(job)
            return
        state = self.migrations.active.get(job.meta.get("request_id"))
        if state is not None and not self.halted and not self._stale(
            job.meta.get("sys_epoch")
        ):
            self.migrations.abort_transfer_failure(state)

    # -- KV backups (§3.3) -----------------------------------------------------

    def _keep_prefill_copy(self, request: Request) -> bool:
        """Retain the prefill instance's copy of the KV as a backup?"""
        cfg = self.ws_config
        prefill, decode = self.prefill_instance, self.decode_instance
        keep = (
            not prefill.failed
            and cfg.backup_enabled
            and request.prompt_tokens >= cfg.backup_min_prompt_tokens
            and prefill.kv.gpu_capacity_blocks > 0
            and prefill.kv.free_gpu_blocks / prefill.kv.gpu_capacity_blocks
            > BACKUP_PREFILL_FREE_FRAC
            and decode.kv.free_gpu_blocks / max(1, decode.kv.gpu_capacity_blocks)
            < BACKUP_DECODE_PRESSURE_FRAC
        )
        if keep:
            self.backups[request.request_id] = request.prompt_tokens
            self.metrics.bump("backup_kept")
        return keep

    def _free_prefill_copy(self, request: Request) -> None:
        self.consume_backup(request)
        super()._free_prefill_copy(request)

    def backup_tokens(self, request: Request) -> int:
        return self.backups.get(request.request_id, 0)

    def consume_backup(self, request: Request) -> None:
        self.backups.pop(request.request_id, None)

    def evict_backups(self, tokens_needed: int) -> None:
        """Drop backups (oldest first) until ``tokens_needed`` KV fits."""
        prefill = self.prefill_instance
        for request_id in list(self.backups):
            if prefill.kv.can_allocate(tokens_needed):
                return
            del self.backups[request_id]
            prefill.kv.free(request_id)
            self.metrics.bump("backup_evicted")

    # -- rescheduling -------------------------------------------------------------

    def maybe_reschedule(self) -> bool:
        """Run a Dynamic Rescheduling check (see MigrationManager.maybe_reschedule)."""
        if self.halted:
            return False
        return self.migrations.maybe_reschedule()

    # -- events ---------------------------------------------------------------------

    def on_request_finished(self, request: Request, instance) -> None:
        if request.request_id in self.backups:
            del self.backups[request.request_id]
            self.prefill_instance.kv.free(request.request_id)
        super().on_request_finished(request, instance)
