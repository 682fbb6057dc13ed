"""The Global Scheduler's Profiler (paper §3.2.1).

Before runtime, the Profiler "profiles" the serving instance — here, by
sampling the analytic latency model, exactly as the real system samples the
GPU — and fits the paper's regression forms:

* prefill: ``T = a_p N + b_p N^2 + c_p`` (quadratic in prefill tokens);
* decode:  ``T = a_d sum(L) + c_d`` (linear in total context length).

At runtime it predicts batch completion times for the Coordinator's
dispatch decisions, and derives the decode instance's assist *budget* — the
largest prefill co-run that keeps the SBD-slowed decode iteration under the
TPOT SLO.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.perf.interference import StreamContentionModel
from repro.perf.roofline import LatencyModel


class Profiler:
    """Latency regression model fitted against profiled batch timings."""

    def __init__(
        self,
        latency_model: LatencyModel,
        max_prefill_tokens: Optional[int] = None,
        profile_batch_sizes: tuple[int, ...] = (1, 4, 16, 64),
    ) -> None:
        self._model = latency_model
        spec = latency_model.spec
        max_tokens = max_prefill_tokens or spec.max_context

        # Offline profiling pass: prefill grid -> quadratic fit.
        # Sorted distinct token counts.  Not np.unique: on numpy 2.x it
        # imports numpy.ma, which every system build would then pay for.
        raw = np.clip(np.geomspace(16, max_tokens, num=24).astype(int), 1, max_tokens)
        grid = np.array(sorted(set(raw.tolist())))
        prefill_times = np.array([latency_model.prefill(int(n)).duration for n in grid])
        design = np.stack([grid.astype(float), grid.astype(float) ** 2, np.ones_like(grid, dtype=float)], axis=1)
        coeffs, *_ = np.linalg.lstsq(design, prefill_times, rcond=None)
        self.a_p, self.b_p, self.c_p = (float(c) for c in coeffs)

        # Decode grid over (batch, context) -> linear fit in sum(L).
        samples = []
        for batch in profile_batch_sizes:
            for ctx in (128, 512, 1024, 2048, 4096):
                sum_l = batch * min(ctx, spec.max_context)
                samples.append((sum_l, latency_model.decode(batch, sum_l).duration))
        sum_ls = np.array([s for s, _ in samples], dtype=float)
        times = np.array([t for _, t in samples])
        design_d = np.stack([sum_ls, np.ones_like(sum_ls)], axis=1)
        coeffs_d, *_ = np.linalg.lstsq(design_d, times, rcond=None)
        self.a_d, self.c_d = float(coeffs_d[0]), float(coeffs_d[1])

    # -- regression predictions ---------------------------------------------

    def predict_prefill(self, num_tokens: int) -> float:
        """Regression estimate for one prefill pass over ``num_tokens``."""
        if num_tokens <= 0:
            return 0.0
        n = float(num_tokens)
        return max(0.0, self.a_p * n + self.b_p * n * n + self.c_p)

    def predict_decode(self, sum_context: int) -> float:
        """Regression estimate for one decode iteration over ``sum_context``."""
        if sum_context <= 0:
            return 0.0
        return max(0.0, self.a_d * float(sum_context) + self.c_d)

    def predict_ttft(
        self,
        queued_prefill_tokens: int,
        new_prompt_tokens: int,
        current_batch_remaining: float,
    ) -> float:
        """Algorithm 1's ``TTFT_pred``: queue + new request + in-flight batch.

        Per the paper, the estimate is token-based: the cumulative prompt
        tokens of the waiting queue plus the new request feed the quadratic,
        and the remaining time of the currently prefilling batch is added.
        """
        return (
            self.predict_prefill(queued_prefill_tokens + new_prompt_tokens)
            + max(0.0, current_batch_remaining)
        )

    # -- assist budget (§3.2.2) -----------------------------------------------

    def find_assist_budget(
        self,
        contention: StreamContentionModel,
        tpot_slo: float,
        reference_batch: int = 16,
        reference_context: Optional[int] = None,
        max_tokens: Optional[int] = None,
    ) -> int:
        """Largest assist-prefill size keeping SBD decode under the TPOT SLO.

        Determined "through simulation and profiling before runtime"
        (paper): evaluate the SBD-slowed decode iteration for a reference
        decode batch and grow the co-run prefill until the SLO would break.
        """
        spec = self._model.spec
        ctx = reference_context or spec.max_context
        cap = max_tokens or spec.max_context
        sum_l = reference_batch * ctx
        iso = self._model.decode(reference_batch, sum_l).duration
        if iso > tpot_slo * contention.decode_retention(0):
            return 0
        lo, hi = 0, cap
        while lo < hi:
            mid = (lo + hi + 1) // 2
            slowed = iso / contention.decode_retention(mid)
            if slowed <= tpot_slo:
                lo = mid
            else:
                hi = mid - 1
        return lo
