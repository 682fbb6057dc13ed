"""DistServe baseline: static phase disaggregation.

Faithful to the behaviour the paper measures against:

* the prefill instance runs pure prefill batches (FCFS, token-capped) and
  does **not** retain KV after hand-off — all live KV sits in the decode
  instance (the memory imbalance of §2.2);
* after a request's prefill, its KV is transferred to the decode instance;
  the request only joins the decode queue when the transfer completes, and
  the transfer can only start once the decode instance has blocks free —
  head-of-line decode queuing under memory pressure;
* there is no cross-instance coordination: an overloaded prefill instance
  cannot borrow the decode instance's idle compute, and an overloaded decode
  instance swaps KV to host DRAM.
"""

from __future__ import annotations

from typing import Optional

from repro.serving.batching import Batch
from repro.serving.disaggregated import DisaggregatedSystem
from repro.serving.instance import MAX_DECODE_BATCH_SIZE, Instance, Lane
from repro.serving.request import Phase, Request


class DistServePrefillInstance(Instance):
    """Pure-prefill engine: FCFS batches capped by a token budget."""

    def _form_batch(self, lane: Lane) -> Optional[Batch]:
        if not self.waiting:
            return None
        batch_requests: list[Request] = []
        tokens = 0
        while self.waiting:
            request = self.waiting[0]
            needed = request.remaining_prefill_tokens
            if (
                batch_requests
                and tokens + needed > self.config.max_prefill_tokens_per_batch
            ):
                break
            if not self.kv.can_allocate(needed):
                break
            self.waiting.popleft()
            self.kv.allocate(request.request_id, needed)
            request.phase = Phase.PREFILLING
            if request.prefill_start is None:
                request.prefill_start = self.sim.now
            batch_requests.append(request)
            tokens += needed
        if not batch_requests:
            return None
        timing = self.latency.prefill(tokens)
        return Batch(
            "prefill",
            timing.duration,
            prefill_requests=batch_requests,
            prefill_tokens=tokens,
            timing=timing,
        )

    def _on_batch_complete(self, lane: Lane, batch: Batch) -> None:
        now = self.sim.now
        for request in batch.prefill_requests:
            request.prefilled_tokens = request.prefill_required
            if request.output_generated == 0:
                # First pass (not a recompute after a replanning restart).
                request.first_token_time = now
                request.output_generated = 1
                if request.output_tokens <= 1:
                    self._retire(request, now)
                    continue
                request.decode_queue_enter = now
            assert self.system is not None
            self.system.complete_handoff(request)  # type: ignore[attr-defined]


class DistServeDecodeInstance(Instance):
    """Pure-decode engine: continuous batching with CPU swap on KV pressure."""

    def _form_batch(self, lane: Lane) -> Optional[Batch]:
        while self.waiting and lane.batch_size < MAX_DECODE_BATCH_SIZE:
            request = self.waiting.popleft()
            if request.decode_start is None:
                request.decode_start = self.sim.now
            self.start_decoding(request, lane)
        if not lane.running:
            return None
        kind, duration, timing = self._decode_pass(lane)
        return Batch(kind, duration, decode_requests=list(lane.running), timing=timing)

    def _on_batch_complete(self, lane: Lane, batch: Batch) -> None:
        self.finish_decode_iteration(lane, batch)


class DistServeSystem(DisaggregatedSystem):
    """Static PD serving with blocking post-prefill KV hand-off."""

    name = "distserve"
    prefill_class = DistServePrefillInstance
    decode_class = DistServeDecodeInstance
