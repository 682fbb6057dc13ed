"""Stream-based disaggregation (paper §3.4).

When Dynamic Prefill Dispatch sends a prefill job to the decode instance,
the job runs in a *separate CUDA stream* concurrently with the ongoing
decode iterations.  The :class:`AssistStream` models that extra stream: one
assist prefill executes at a time (its duration inflated by the
stream-contention model), while the decode lanes keep iterating with a mild
bandwidth-loss slowdown.  Without SBD (the *WindServe-no-split* ablation)
the decode instance instead folds the assist prefill into a regular hybrid
batch, and every co-scheduled decode request pays the full fused-pass
latency.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.serving.request import Phase, Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.instances import WindServeDecodeInstance


@dataclass
class AssistJob:
    """One dispatched prefill executing in the assist stream."""

    request: Request
    started: float
    duration: float


class AssistStream:
    """The decode instance's extra CUDA stream for dispatched prefills."""

    def __init__(self, instance: "WindServeDecodeInstance") -> None:
        self.instance = instance
        self.queue: deque[Request] = deque()
        self.active: Optional[AssistJob] = None

    # -- state ----------------------------------------------------------------

    @property
    def active_prefill_tokens(self) -> int:
        """Prefill tokens currently co-running (drives decode slowdown)."""
        return self.active.request.prompt_tokens if self.active else 0

    def in_flight_tokens(self) -> int:
        """Queued + running assist tokens (for the Coordinator's slots)."""
        tokens = sum(r.prompt_tokens for r in self.queue)
        return tokens + self.active_prefill_tokens

    # -- operations -------------------------------------------------------------

    def submit(self, request: Request) -> None:
        """Accept a dispatched prefill (KV already allocated by the Coordinator)."""
        request.phase = Phase.PREFILLING
        request.dispatched_prefill = True
        self.queue.append(request)
        self.pump()
        # Without SBD the queue drains through regular hybrid batches instead.
        self.instance.kick()

    def _mode(self) -> str:
        system = self.instance.system
        ws_config = getattr(system, "ws_config", None)
        if ws_config is None:
            return "sbd"
        return ws_config.colocation_mode

    def pump(self) -> None:
        """Start the next assist job if the execution resource is idle.

        In ``"sbd"`` mode the resource is a separate CUDA stream; in
        ``"static-partition"`` mode it is the fixed prefill partition.  In
        ``"hybrid"`` mode there is no separate resource — the decode
        instance folds queued assists into regular batches instead.
        """
        mode = self._mode()
        if self.active is not None or not self.queue or mode == "hybrid":
            return
        inst = self.instance
        request = self.queue.popleft()
        if request.prefill_start is None:
            request.prefill_start = inst.sim.now
        batch = inst.current_decode_load()
        if mode == "static-partition":
            # The prefill partition owns a fixed resource fraction f: the
            # prefill runs at f of full speed regardless of decode load.
            fraction = inst.system.ws_config.static_partition_fraction  # type: ignore[union-attr]
            iso = inst.latency.prefill(request.prompt_tokens)
            duration = iso.duration / fraction
        else:
            outcome = inst.contention.sbd(
                inst.latency, request.prompt_tokens, batch[0], batch[1]
            )
            iso = outcome.prefill_isolated_timing
            duration = outcome.prefill_duration if batch[0] else iso.duration
        self.active = AssistJob(request=request, started=inst.sim.now, duration=duration)
        inst.metrics.record_batch(
            inst.name, duration, iso.compute_time, iso.io_time, lanes=len(inst.lanes)
        )
        inst.metrics.bump("assist_prefill")
        inst.metrics.bump("prefill_tokens_computed", request.prompt_tokens)
        inst.trace.emit(
            inst.sim.now,
            inst.name,
            "assist-start",
            request_id=request.request_id,
            tokens=request.prompt_tokens,
            duration=duration,
        )
        inst.sim.schedule(duration, self._complete, self.active)

    def _complete(self, job: AssistJob) -> None:
        if self.active is not job:
            return  # cancelled by a crash: the stream was rebuilt
        self.active = None
        inst = self.instance
        if inst.halted or inst.failed:
            return
        request = job.request
        now = inst.sim.now
        request.prefilled_tokens = request.prompt_tokens
        request.first_token_time = now
        request.output_generated = 1
        inst.trace.emit(now, inst.name, "assist-done", request_id=request.request_id)
        if request.output_tokens <= 1:
            inst._retire(request, now)
        else:
            # KV is already resident on the decode instance: no hand-off
            # transfer — decoding starts immediately.
            request.decode_queue_enter = now
            request.decode_start = now
            inst.start_decoding(request)
        self.pump()
        inst.kick()
