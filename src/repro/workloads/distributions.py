"""Token-length distributions fitted to the paper's Table 2 statistics.

Real prompt/output lengths are heavy-tailed; we model them as clipped
lognormals.  The fit pins the median exactly (``mu = ln median``), takes
``sigma`` from the P90/median ratio, and then solves for the clip point that
matches the reported mean — three published moments, three parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Standard-normal quantile for P90.
Z90 = 1.2815515655446004


@dataclass(frozen=True)
class LengthDistribution:
    """Clipped lognormal over positive integer token counts."""

    median: float
    sigma: float
    cap: float
    min_value: int = 1

    @property
    def mu(self) -> float:
        return float(np.log(self.median))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` integer lengths."""
        raw = rng.lognormal(mean=self.mu, sigma=self.sigma, size=n)
        clipped = np.clip(raw, self.min_value, self.cap)
        return np.maximum(np.rint(clipped).astype(int), self.min_value)


def _clipped_lognormal_mean(mu: float, sigma: float, cap: float) -> float:
    """E[min(X, cap)] for X ~ LogNormal(mu, sigma)."""
    if cap <= 0:
        return 0.0
    ln_c = np.log(cap)
    below = np.exp(mu + sigma**2 / 2) * _norm_cdf((ln_c - mu - sigma**2) / sigma)
    above = cap * (1.0 - _norm_cdf((ln_c - mu) / sigma))
    return float(below + above)


def _norm_cdf(x: float) -> float:
    """Standard-normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2))


def fitted_lognormal(
    median: float,
    p90: float,
    mean: float,
    min_value: int = 1,
    max_cap: float = 1e6,
) -> LengthDistribution:
    """Fit a clipped lognormal to (median, P90, mean).

    ``sigma`` comes from the P90/median ratio; the clip point is found by
    bisection so the clipped mean matches the target.  If even an unclipped
    distribution undershoots the mean (possible when the reported moments are
    slightly inconsistent), the cap saturates at ``max_cap``.
    """
    if not median > 0:
        raise ValueError("median must be positive")
    if p90 < median:
        raise ValueError("p90 must be >= median")
    mu = float(np.log(median))
    sigma = max(1e-6, float(np.log(p90 / median)) / Z90)

    unclipped_mean = float(np.exp(mu + sigma**2 / 2))
    if unclipped_mean <= mean:
        return LengthDistribution(median, sigma, max_cap, min_value)

    lo, hi = p90, max_cap
    if _clipped_lognormal_mean(mu, sigma, lo) > mean:
        # Even clipping at the P90 overshoots: accept the P90 clip (keeps the
        # published tail quantile intact at minor cost to the mean).
        return LengthDistribution(median, sigma, lo, min_value)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _clipped_lognormal_mean(mu, sigma, mid) < mean:
            lo = mid
        else:
            hi = mid
    return LengthDistribution(median, sigma, 0.5 * (lo + hi), min_value)
