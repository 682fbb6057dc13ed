"""Tests for fitted length distributions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.distributions import (
    LengthDistribution,
    _clipped_lognormal_mean,
    fitted_lognormal,
)


class TestFitting:
    def test_median_preserved(self):
        dist = fitted_lognormal(median=100, p90=300, mean=150)
        rng = np.random.default_rng(0)
        samples = dist.sample(rng, 100_000)
        assert np.median(samples) == pytest.approx(100, rel=0.05)

    def test_p90_preserved(self):
        dist = fitted_lognormal(median=100, p90=300, mean=150)
        rng = np.random.default_rng(0)
        samples = dist.sample(rng, 100_000)
        assert np.percentile(samples, 90) == pytest.approx(300, rel=0.08)

    def test_mean_matched_by_clipping(self):
        dist = fitted_lognormal(median=12, p90=369, mean=97.4)
        rng = np.random.default_rng(0)
        samples = dist.sample(rng, 200_000)
        assert samples.mean() == pytest.approx(97.4, rel=0.10)

    def test_degenerate_p90_equals_median(self):
        dist = fitted_lognormal(median=100, p90=100, mean=100)
        samples = dist.sample(np.random.default_rng(0), 1000)
        assert np.all(np.abs(samples - 100) <= 1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fitted_lognormal(median=0, p90=10, mean=5)
        with pytest.raises(ValueError):
            fitted_lognormal(median=100, p90=50, mean=100)

    def test_mean_above_unclipped_saturates_cap(self):
        dist = fitted_lognormal(median=100, p90=120, mean=10_000, max_cap=1e6)
        assert dist.cap == 1e6


class TestSampling:
    def test_samples_are_positive_integers(self):
        dist = fitted_lognormal(median=50, p90=200, mean=80, min_value=4)
        samples = dist.sample(np.random.default_rng(1), 10_000)
        assert samples.dtype.kind == "i"
        assert samples.min() >= 4

    def test_samples_respect_cap(self):
        dist = LengthDistribution(median=100, sigma=1.0, cap=500)
        samples = dist.sample(np.random.default_rng(1), 10_000)
        assert samples.max() <= 500

    def test_deterministic_given_rng(self):
        dist = fitted_lognormal(median=50, p90=200, mean=80)
        a = dist.sample(np.random.default_rng(7), 100)
        b = dist.sample(np.random.default_rng(7), 100)
        np.testing.assert_array_equal(a, b)

    def test_analytic_mean_matches_empirical(self):
        dist = LengthDistribution(median=100, sigma=0.8, cap=400)
        samples = dist.sample(np.random.default_rng(2), 300_000)
        analytic = _clipped_lognormal_mean(dist.mu, dist.sigma, dist.cap)
        assert samples.mean() == pytest.approx(analytic, rel=0.03)


class TestClippedMean:
    def test_huge_cap_recovers_lognormal_mean(self):
        mu, sigma = np.log(100), 0.5
        expected = np.exp(mu + sigma**2 / 2)
        assert _clipped_lognormal_mean(mu, sigma, 1e12) == pytest.approx(expected, rel=1e-6)

    def test_mean_monotone_in_cap(self):
        mu, sigma = np.log(100), 1.0
        caps = [150, 300, 600, 1200]
        means = [_clipped_lognormal_mean(mu, sigma, c) for c in caps]
        assert means == sorted(means)

    def test_zero_cap(self):
        assert _clipped_lognormal_mean(0.0, 1.0, 0) == 0.0


@settings(max_examples=25)
@given(
    median=st.floats(5, 2000),
    ratio=st.floats(1.01, 20.0),
    mean_factor=st.floats(0.9, 3.0),
)
def test_property_fit_is_well_formed(median, ratio, mean_factor):
    p90 = median * ratio
    mean = median * mean_factor
    dist = fitted_lognormal(median=median, p90=p90, mean=mean)
    assert dist.sigma > 0
    assert dist.cap >= p90 or dist.cap == pytest.approx(p90)
    samples = dist.sample(np.random.default_rng(0), 1000)
    assert samples.min() >= dist.min_value


def test_import_does_not_pull_in_scipy():
    """The package needs only numpy: importing it must not load SciPy."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    probe = "import sys, repro; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
