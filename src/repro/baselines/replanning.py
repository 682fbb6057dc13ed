"""DistServe with placement replanning (the paper's §2.2 strawman).

"Although DistServe suggests replanning the allocation strategy when the
request pattern shifts significantly, the associated replanning overhead
introduces non-negligible stagnation, rendering this approach suboptimal."

This system implements that strategy so the claim can be measured: it
monitors the arriving request pattern (windowed mean prompt length and
rate), analytically scores a set of alternative placements, and when a
different placement clearly wins it *replans*.  A replan restarts the pair
the way a fleet re-plans a member: ``crash()`` drains it, and
``replan_downtime`` seconds later (weight redistribution and engine
restart) ``rebuild_placement`` builds the new pair and ``restart()``
resumes it.  As in a real engine restart, live KV and in-flight batches
are lost: every unfinished request, including those that arrived during
the stall, re-queues on the new pair and prefills from scratch.  That
makes this baseline harsher than a restart that could carry KV over; the
§2.2 claim holds either way (see EXPERIMENTS.md).
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from repro.baselines.distserve import DistServeSystem
from repro.hardware.gpu import GPUSpec
from repro.models.spec import ModelSpec
from repro.perf.roofline import LatencyModel
from repro.serving.placement import Placement
from repro.serving.request import Phase, Request
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
        self.replan_count = 0
        # Every admitted request, pruned to the unfinished ones at each
        # replan.  A hand-off copy in flight at the crash sits in no queue,
        # so the restart re-queues from this list, as a fleet re-queues a
        # re-planned member's assignments.
        self._admitted: list[Request] = []

    # -- pattern monitoring ----------------------------------------------------

    def submit(self, request: Request) -> None:
        self._pattern.append(
            (self.sim.now, request.prompt_tokens, request.output_tokens)
        )
        self._maybe_replan()
        self._admitted.append(request)
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
        # A drained (halted) pair is mid-replan: it does not replan again.
        if self.halted or now - self._last_check < self.replan_check_interval:
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
        self.replan_count += 1
        self.metrics.bump("replan")
        self.trace.emit(
            self.sim.now,
            "replanner",
            "replan-start",
            target=self.alternatives[target_index].label(),
        )
        self.crash()
        resume_at = self.sim.now + self.replan_downtime
        self.sim.call_at(resume_at, self._finish_replan, target_index)

    def _finish_replan(self, target_index: int) -> None:
        # The crash's losses, hand-offs caught mid-copy and arrivals during
        # the stall: everything unfinished re-queues on the new pair.
        lost = [r for r in self._admitted if not r.finished and r.phase is not Phase.SHED]
        self._admitted = lost
        placement = self.alternatives[target_index]
        self.rebuild_placement(placement)
        self.restart()
        self.current_index = target_index
        self.trace.emit(self.sim.now, "replanner", "replan-done", placement=placement.label())
        self.recover_lost_requests(self.prefill_instance, lost)
