"""The Global Scheduler's Coordinator (paper §3.2.2, Algorithm 1).

The Coordinator watches both instances' load and decides, per arriving
request, whether its prefill runs on the prefill instance or is *dispatched*
to the decode instance's assist stream; and, per decode iteration, whether
Dynamic Rescheduling should migrate decode jobs the other way.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.core.config import ASSIST_KV_HEADROOM_BLOCKS
from repro.serving.request import Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.windserve import WindServeSystem


class Route(enum.Enum):
    PREFILL = "prefill"
    ASSIST = "assist"


class Coordinator:
    """Cross-instance dynamic scheduling decisions."""

    def __init__(self, system: "WindServeSystem") -> None:
        self.system = system

    # -- Algorithm 1: Dynamic Prefill Dispatch -----------------------------

    def route_new_request(self, request: Request) -> Route:
        """Decide where a new request's prefill runs.

        Mirrors Algorithm 1: predict the request's TTFT if enqueued on the
        prefill instance (queue tokens + in-flight batch remainder); if it
        exceeds the threshold ``thrd`` and the decode instance has enough
        assist *slots*, dispatch.
        """
        system = self.system
        cfg = system.ws_config
        # Degraded-mode routing: once the heartbeat monitor declares an
        # instance failed, steer new work to the survivor.
        if system.is_down(system.decode_instance):
            return Route.PREFILL
        if system.is_down(system.prefill_instance):
            if self.available_slots() >= request.prompt_tokens:
                system.metrics.bump("rerouted_prefill")
                return Route.ASSIST
            return Route.PREFILL  # parks in the waiting queue until recovery
        if not cfg.dispatch_enabled:
            return Route.PREFILL
        slo = system.config.slo
        if slo is None:
            # No SLO to anchor `thrd` on: dispatch once queuing would
            # multiply the request's own prefill latency several times over.
            thrd = 5.0 * system.prefill_profiler.predict_prefill(request.prompt_tokens)
        else:
            thrd = cfg.resolve_threshold(slo.ttft)
        ttft_pred = self.predict_ttft(request)
        if ttft_pred <= thrd:
            return Route.PREFILL
        if self.available_slots() >= request.prompt_tokens:
            system.metrics.bump("dispatched_prefill")
            return Route.ASSIST
        system.metrics.bump("dispatch_rejected_no_slots")
        return Route.PREFILL

    def predict_ttft(self, request: Request) -> float:
        """Profiler-backed TTFT estimate if the request joins the prefill queue."""
        system = self.system
        prefill = system.prefill_instance
        now = system.sim.now
        busy = [lane.busy_until - now for lane in prefill.lanes if lane.busy]
        remaining = max(0.0, min(busy)) if busy else 0.0
        return system.prefill_profiler.predict_ttft(
            prefill.queued_prefill_tokens(), request.prompt_tokens, remaining
        )

    def available_slots(self) -> int:
        """Prefill tokens the decode instance can currently absorb.

        Bounded by (a) the TPOT-SLO-derived assist *budget* minus assist
        work already in flight, and (b) the decode instance's free KV blocks
        beyond a safety headroom — "if the KV blocks in the decoding
        instance are inadequate, the available slot is set to 0".
        """
        system = self.system
        decode = system.decode_instance
        if decode.failed:
            return 0
        in_flight = decode.assist.in_flight_tokens()
        budget_left = system.assist_budget_tokens - in_flight
        free_blocks = decode.kv.free_gpu_blocks - ASSIST_KV_HEADROOM_BLOCKS
        kv_tokens = max(0, free_blocks) * decode.kv.block_size
        return max(0, min(budget_left, kv_tokens))
