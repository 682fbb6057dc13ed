"""DistServe with placement replanning (the paper's §2.2 strawman).

"Although DistServe suggests replanning the allocation strategy when the
request pattern shifts significantly, the associated replanning overhead
introduces non-negligible stagnation, rendering this approach suboptimal."

This system implements that strategy so the claim can be measured: it
monitors the arriving request pattern (windowed mean prompt length and
rate), analytically scores a set of alternative placements, and when a
different placement clearly wins it *replans* — stalling both instances
for ``replan_downtime`` seconds (weight redistribution and engine restart)
before resuming under the new configuration.  The restart is modelled
generously (live KV survives, displaced blocks merely swap), so measured
losses are a lower bound on real replanning cost.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from repro.baselines.distserve import DistServeSystem
from repro.hardware.gpu import GPUSpec
from repro.models.spec import ModelSpec
from repro.perf.roofline import LatencyModel
from repro.serving.placement import Placement
from repro.serving.request import Request
from repro.serving.system import SystemConfig

# Analytic capacity anchors for scoring placements.
PREFILL_REF_TOKENS = 2048
DECODE_REF_BATCH = 64


def placement_capacities(
    model: ModelSpec, gpu: GPUSpec, placement: Placement, mean_context: float
) -> tuple[float, float]:
    """(prefill tokens/s, decode requests/s) a placement sustains."""
    prefill_lm = LatencyModel(model, gpu, placement.prefill_parallel)
    decode_lm = LatencyModel(model, gpu, placement.decode_parallel)
    prefill_tput = (
        PREFILL_REF_TOKENS
        / prefill_lm.prefill(PREFILL_REF_TOKENS).duration
        * placement.prefill_parallel.pp
    )
    iteration = decode_lm.decode(
        DECODE_REF_BATCH, int(DECODE_REF_BATCH * max(1.0, mean_context))
    ).duration
    tokens_per_s = DECODE_REF_BATCH / iteration * placement.decode_parallel.pp
    return prefill_tput, tokens_per_s


class ReplanningDistServeSystem(DistServeSystem):
    """DistServe + pattern monitoring + stall-and-restart replanning."""

    name = "distserve-replan"

    def __init__(
        self,
        config: SystemConfig,
        alternatives: Sequence[Placement],
        topology=None,
        sim=None,
        replan_check_interval: float = 10.0,
        replan_downtime: float = 30.0,
        replan_hysteresis: float = 1.15,
        pattern_window: int = 64,
    ) -> None:
        if not alternatives:
            raise ValueError("need at least one placement alternative")
        super().__init__(config, placement=alternatives[0], topology=topology, sim=sim)
        self.alternatives = list(alternatives)
        self.current_index = 0
        self.replan_check_interval = replan_check_interval
        self.replan_downtime = replan_downtime
        self.replan_hysteresis = replan_hysteresis
        self._pattern: deque[tuple[float, int, int]] = deque(maxlen=pattern_window)
        self._last_check = 0.0
        self._replanning = False
        self.replan_count = 0

    # -- pattern monitoring ----------------------------------------------------

    def submit(self, request: Request) -> None:
        self._pattern.append(
            (self.sim.now, request.prompt_tokens, request.output_tokens)
        )
        self._maybe_replan()
        super().submit(request)

    def _observed_pattern(self) -> Optional[tuple[float, float, float]]:
        """(rate, mean prompt, mean output) over the window, if enough data."""
        if len(self._pattern) < self._pattern.maxlen:
            return None
        span = self._pattern[-1][0] - self._pattern[0][0]
        if span <= 0:
            return None
        rate = len(self._pattern) / span
        mean_prompt = sum(p for _, p, _ in self._pattern) / len(self._pattern)
        mean_output = sum(o for _, _, o in self._pattern) / len(self._pattern)
        return rate, mean_prompt, mean_output

    def score(self, placement: Placement, pattern: tuple[float, float, float]) -> float:
        """Min headroom over both phases: higher is better."""
        rate, mean_prompt, mean_output = pattern
        mean_context = mean_prompt + mean_output / 2
        prefill_cap, decode_token_cap = placement_capacities(
            self.config.model, self.config.gpu, placement, mean_context
        )
        prefill_demand = rate * mean_prompt
        decode_demand = rate * max(1.0, mean_output - 1)
        return min(prefill_cap / prefill_demand, decode_token_cap / decode_demand)

    def _maybe_replan(self) -> None:
        now = self.sim.now
        if self._replanning or now - self._last_check < self.replan_check_interval:
            return
        self._last_check = now
        pattern = self._observed_pattern()
        if pattern is None:
            return
        scores = [self.score(p, pattern) for p in self.alternatives]
        best = max(range(len(scores)), key=scores.__getitem__)
        current = scores[self.current_index]
        if best == self.current_index or scores[best] < self.replan_hysteresis * current:
            return
        self._start_replan(best)

    # -- stall-and-restart -------------------------------------------------------

    def _start_replan(self, target_index: int) -> None:
        self._replanning = True
        self.replan_count += 1
        self.metrics.bump("replan")
        resume_at = self.sim.now + self.replan_downtime
        for instance in (self.prefill_instance, self.decode_instance):
            instance.paused_until = resume_at
        self.trace.emit(
            self.sim.now,
            "replanner",
            "replan-start",
            target=self.alternatives[target_index].label(),
        )
        self.sim.call_at(resume_at, self._finish_replan, target_index)

    def _finish_replan(self, target_index: int) -> None:
        placement = self.alternatives[target_index]
        # In-flight batches were shorter than the downtime; lanes are idle.
        self.prefill_instance.reconfigure(
            placement.prefill_parallel, placement.prefill_gpus
        )
        self.decode_instance.reconfigure(placement.decode_parallel, placement.decode_gpus)
        self.placement = placement
        self.current_index = target_index
        self._replanning = False
        self.trace.emit(self.sim.now, "replanner", "replan-done", placement=placement.label())
        self.prefill_instance.kick()
        self.decode_instance.kick()
        self.pump_handoffs()

    def on_kv_dropped(self, request: Request, instance) -> None:
        """A replanning restart lost this request's KV: recompute it.

        The request re-prefills its full live context on the prefill
        instance and re-enters the decode pipeline via a fresh hand-off."""
        request.restart_prefill()
        self.metrics.bump("replan_recompute")
        self.prefill_instance.enqueue(request)
