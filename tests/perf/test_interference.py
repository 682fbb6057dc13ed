"""Tests for the prefill/decode interference models (paper Figs. 7-8)."""

from __future__ import annotations

import pytest

from repro.hardware.gpu import A800_80GB
from repro.models.parallelism import ParallelConfig
from repro.models.registry import LLAMA2_70B, OPT_13B
from repro.perf.interference import StreamContentionModel
from repro.perf.roofline import LatencyModel


@pytest.fixture
def lm():
    return LatencyModel(OPT_13B, A800_80GB, ParallelConfig(tp=2))


@pytest.fixture
def scm():
    return StreamContentionModel()


class TestDecodeRetention:
    def test_no_prefill_full_retention(self, scm):
        assert scm.decode_retention(0) == 1.0

    def test_retention_decreases_with_prefill_size(self, scm):
        assert scm.decode_retention(512) > scm.decode_retention(4096)

    def test_retention_bounded_below(self, scm):
        floor = scm.decode_bw_retention - scm.decode_bw_loss_scale
        assert scm.decode_retention(10**9) >= floor - 1e-9

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            StreamContentionModel(decode_bw_retention=0.0)
        with pytest.raises(ValueError):
            StreamContentionModel(prefill_compute_retention=1.5)
        with pytest.raises(ValueError):
            StreamContentionModel(decode_bw_loss_scale=0.99)


class TestSBD:
    def test_decode_nearly_unaffected(self, lm, scm):
        """Fig. 8: SBD decode iteration ~= isolated decode."""
        out = scm.sbd(lm, 2048, 16, 16 * 2048)
        assert 1.0 <= out.decode_iteration / out.decode_isolated <= 1.25

    def test_prefill_moderately_slower(self, lm, scm):
        """Fig. 8: SBD prefill ~1.3-1.7x isolated (LLaMA2-70B: 0.75 vs ~0.5)."""
        out = scm.sbd(lm, 2048, 16, 16 * 2048)
        assert 1.15 <= out.prefill_duration / out.prefill_isolated <= 1.9

    def test_no_decode_batch_prefill_isolated(self, lm, scm):
        out = scm.sbd(lm, 2048, 0, 0)
        assert out.prefill_duration == out.prefill_isolated

    def test_carries_the_isolated_prefill_timing(self, lm, scm):
        out = scm.sbd(lm, 2048, 16, 16 * 2048)
        assert out.prefill_isolated_timing == lm.prefill(2048)
        assert out.prefill_isolated == lm.prefill(2048).duration
        weight_io = lm.parallel.shard_io_bytes(lm.spec.weight_bytes) / lm.gpu.effective_bandwidth
        assert out.prefill_duration == (
            out.prefill_isolated / scm.prefill_compute_retention + 0.25 * weight_io
        )

    def test_no_prefill_decode_isolated(self, lm, scm):
        out = scm.sbd(lm, 0, 16, 16 * 1024)
        assert out.decode_iteration == out.decode_isolated
        assert out.prefill_duration == 0.0


class TestChunkedPrefill:
    def test_chunk_count(self, lm, scm):
        _, _, n = scm.chunked_prefill(lm, 2048, 512, 16, 16 * 2048)
        assert n == 4

    def test_uneven_last_chunk(self, lm, scm):
        _, _, n = scm.chunked_prefill(lm, 1000, 512, 16, 16 * 2048)
        assert n == 2

    def test_smaller_chunks_increase_total_prefill(self, lm, scm):
        """Paper: 'reducing the chunk size ... further increases the prefill cost'."""
        big, _, _ = scm.chunked_prefill(lm, 2048, 1024, 16, 16 * 2048)
        small, _, _ = scm.chunked_prefill(lm, 2048, 256, 16, 16 * 2048)
        assert small > big

    def test_smaller_chunks_decrease_iteration_time(self, lm, scm):
        """...but lowers each fused step's (decode-visible) latency."""
        _, iter_big, _ = scm.chunked_prefill(lm, 2048, 1024, 16, 16 * 2048)
        _, iter_small, _ = scm.chunked_prefill(lm, 2048, 256, 16, 16 * 2048)
        assert iter_small < iter_big

    def test_no_prefill_returns_isolated_decode(self, lm, scm):
        total, it, n = scm.chunked_prefill(lm, 0, 512, 16, 16 * 1024)
        assert total == 0.0 and n == 0
        assert it == pytest.approx(lm.decode(16, 16 * 1024).duration)


@pytest.mark.parametrize(
    "spec,parallel",
    [
        (OPT_13B, ParallelConfig(tp=2)),
        (LLAMA2_70B, ParallelConfig(tp=2, pp=2)),
    ],
)
class TestFig8Ordering:
    """The Fig. 8 comparison must hold for every evaluated model."""

    def test_sbd_beats_chunked_for_prefill(self, spec, parallel):
        lm = LatencyModel(spec, A800_80GB, parallel)
        scm = StreamContentionModel()
        sbd = scm.sbd(lm, 2048, 16, 16 * 2048)
        chunked_total, _, _ = scm.chunked_prefill(lm, 2048, 512, 16, 16 * 2048)
        assert sbd.prefill_duration < chunked_total

    def test_sbd_beats_regular_for_decode(self, spec, parallel):
        lm = LatencyModel(spec, A800_80GB, parallel)
        scm = StreamContentionModel()
        sbd = scm.sbd(lm, 2048, 16, 16 * 2048)
        regular = scm.regular_hybrid(lm, 2048, 16, 16 * 2048)
        assert sbd.decode_iteration < regular.duration / 3

    def test_full_ordering(self, spec, parallel):
        """isolated < SBD prefill < chunked prefill; and for decode:
        isolated ~ SBD << chunked step < regular fused pass."""
        lm = LatencyModel(spec, A800_80GB, parallel)
        scm = StreamContentionModel()
        iso_p = lm.prefill(2048).duration
        iso_d = lm.decode(16, 16 * 2048).duration
        sbd = scm.sbd(lm, 2048, 16, 16 * 2048)
        chunked_total, chunked_iter, _ = scm.chunked_prefill(lm, 2048, 512, 16, 16 * 2048)
        regular = scm.regular_hybrid(lm, 2048, 16, 16 * 2048).duration
        assert iso_p < sbd.prefill_duration < chunked_total
        assert iso_d <= sbd.decode_iteration < chunked_iter < regular
