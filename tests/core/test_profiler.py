"""Tests for the Global Scheduler's Profiler regressions (§3.2.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.profiler import Profiler
from repro.hardware.gpu import A800_80GB
from repro.models.parallelism import ParallelConfig
from repro.models.registry import OPT_13B
from repro.perf.interference import StreamContentionModel
from repro.perf.roofline import LatencyModel


@pytest.fixture
def latency() -> LatencyModel:
    return LatencyModel(OPT_13B, A800_80GB, ParallelConfig(tp=2))


@pytest.fixture
def profiler(latency) -> Profiler:
    return Profiler(latency)


class TestPrefillRegression:
    def test_fit_tracks_model_within_tolerance(self, profiler, latency):
        for n in (64, 256, 768, 1536, 2048):
            predicted = profiler.predict_prefill(n)
            actual = latency.prefill(n).duration
            assert predicted == pytest.approx(actual, rel=0.15)

    def test_quadratic_coefficient_positive(self, profiler):
        """The paper's a_p N + b_p N^2 + c_p form: attention is quadratic."""
        assert profiler.b_p > 0

    def test_zero_tokens_free(self, profiler):
        assert profiler.predict_prefill(0) == 0.0

    def test_monotone(self, profiler):
        assert profiler.predict_prefill(2048) > profiler.predict_prefill(512)


class TestDecodeRegression:
    def test_linear_in_sum_context(self, profiler, latency):
        for batch, ctx in ((8, 512), (16, 1024), (32, 1024)):
            predicted = profiler.predict_decode(batch * ctx)
            actual = latency.decode(batch, batch * ctx).duration
            assert predicted == pytest.approx(actual, rel=0.35)

    def test_positive_slope(self, profiler):
        assert profiler.a_d > 0

    def test_zero_context_free(self, profiler):
        assert profiler.predict_decode(0) == 0.0


class TestTTFTPrediction:
    def test_includes_in_flight_batch(self, profiler):
        base = profiler.predict_ttft(1000, 500, current_batch_remaining=0.0)
        busy = profiler.predict_ttft(1000, 500, current_batch_remaining=0.05)
        assert busy == pytest.approx(base + 0.05)

    def test_token_based_not_request_based(self, profiler):
        """A queue of few long prompts predicts like many short ones."""
        assert profiler.predict_ttft(4000, 100, 0.0) == profiler.predict_ttft(
            2000, 2100, 0.0
        )

    def test_negative_remaining_clamped(self, profiler):
        assert profiler.predict_ttft(100, 100, -1.0) == profiler.predict_ttft(100, 100, 0.0)


#: Grids the regressions are judged on: prefill token counts and
#: (decode batch, per-request context) pairs.
PREFILL_GRID = (48, 200, 600, 1200, 2048)
DECODE_GRID = ((2, 256), (8, 768), (24, 1536), (48, 1024))


def _judged(profiler, latency):
    """``(actual, predicted)`` arrays per phase on the judging grids."""
    prefill = (
        np.array([latency.prefill(n).duration for n in PREFILL_GRID]),
        np.array([profiler.predict_prefill(n) for n in PREFILL_GRID]),
    )
    decode = (
        np.array([latency.decode(b, b * c).duration for b, c in DECODE_GRID]),
        np.array([profiler.predict_decode(b * c) for b, c in DECODE_GRID]),
    )
    return prefill, decode


class TestFitQuality:
    def test_r2_high_for_both_phases(self, profiler, latency):
        def r2(actual, pred):
            return 1.0 - np.sum((actual - pred) ** 2) / np.sum((actual - actual.mean()) ** 2)

        prefill, decode = _judged(profiler, latency)
        assert r2(*prefill) > 0.98
        assert r2(*decode) > 0.90

    def test_mape_small(self, profiler, latency):
        def mape(actual, pred):
            return np.mean(np.abs(actual - pred) / actual)

        prefill, decode = _judged(profiler, latency)
        assert mape(*prefill) < 0.15
        assert mape(*decode) < 0.30


class TestAssistBudget:
    def test_generous_slo_gives_large_budget(self, profiler):
        budget = profiler.find_assist_budget(StreamContentionModel(), tpot_slo=10.0)
        assert budget == OPT_13B.max_context

    def test_impossible_slo_gives_zero(self, profiler):
        budget = profiler.find_assist_budget(StreamContentionModel(), tpot_slo=1e-6)
        assert budget == 0

    def test_budget_keeps_sbd_decode_under_slo(self, profiler, latency):
        scm = StreamContentionModel()
        ref_ctx = OPT_13B.max_context
        iso = latency.decode(16, 16 * ref_ctx).duration
        slo = iso * 1.08  # just above the isolated iteration
        budget = profiler.find_assist_budget(scm, slo, reference_context=ref_ctx)
        if budget > 0:
            assert iso / scm.decode_retention(budget) <= slo + 1e-9
        if budget < OPT_13B.max_context:
            assert iso / scm.decode_retention(budget + 1) > slo

    def test_budget_monotone_in_slo(self, profiler):
        scm = StreamContentionModel()
        loose = profiler.find_assist_budget(scm, 0.2)
        tight = profiler.find_assist_budget(scm, 0.03)
        assert loose >= tight


class TestPrefillGrid:
    @pytest.mark.parametrize("max_tokens", [None, 40, 300, 2048])
    def test_fit_equals_the_np_unique_fit(self, latency, max_tokens):
        """The de-duplicated grid is built without ``np.unique``; the
        fitted coefficients must be bit-identical to a fit over it
        (small caps clip many grid points onto the same count)."""
        import numpy as np

        cap = max_tokens or latency.spec.max_context
        grid = np.unique(np.clip(np.geomspace(16, cap, num=24).astype(int), 1, cap))
        times = np.array([latency.prefill(int(n)).duration for n in grid])
        g = grid.astype(float)
        design = np.stack([g, g**2, np.ones_like(g)], axis=1)
        expected = tuple(float(c) for c in np.linalg.lstsq(design, times, rcond=None)[0])
        fitted = Profiler(latency, max_prefill_tokens=max_tokens)
        assert (fitted.a_p, fitted.b_p, fitted.c_p) == expected

    def test_system_build_does_not_import_numpy_ma(self):
        """``np.unique`` imports ``numpy.ma`` on numpy 2.x; building a
        WindServe cell must not pay for it."""
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        probe = (
            "import sys\n"
            "from repro.harness.cell import Cell\n"
            "from repro.harness.runner import build_system\n"
            "build_system(Cell(system='windserve', model='opt-13b'))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.strip() == "False"
