"""Cost-model consistency suite: hybrid vs isolated-phase accounting.

The hybrid (fused prefill-chunk + decode-batch) pass must agree with the
isolated ``decode()`` / ``prefill_extend()`` formulas term by term:

* FLOPs: fusion saves no arithmetic, so hybrid FLOPs equal the sum of the
  two isolated passes exactly.
* IO: fusion streams the weights and LM head exactly once, so hybrid IO
  equals the isolated sum minus one weight+LM-head stream — in particular
  the per-token *activation* traffic is charged per layer on both sides
  (the PR-8 bugfix; it was previously counted once for the whole fused
  pass, pricing tiny hybrid chunks below decode-alone).

All operands are integers well below 2**53, so the float equalities below
are exact, not approximate.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.gpu import A800_80GB
from repro.models.costs import (
    hybrid_flops_attn_decode,
    hybrid_flops_attn_prefill,
    hybrid_flops_linear,
    hybrid_io_bytes_attn_decode,
    hybrid_io_bytes_attn_prefill,
    hybrid_io_bytes_linear,
    model_flops_decode,
    model_flops_hybrid,
    model_flops_prefill_extend,
    model_io_bytes_decode,
    model_io_bytes_hybrid,
    model_io_bytes_prefill_extend,
)
from repro.models.parallelism import ParallelConfig
from repro.models.registry import LLAMA2_70B, OPT_13B
from repro.models.spec import ModelSpec
from repro.perf.roofline import LatencyModel

model = LatencyModel(OPT_13B, A800_80GB, ParallelConfig(tp=2))

specs = st.sampled_from([OPT_13B, LLAMA2_70B])
chunks = st.integers(1, 4096)
batches = st.integers(1, 256)
priors = st.integers(0, 4096)
contexts = st.integers(0, 8192)


def _once_streamed_bytes(spec: ModelSpec) -> float:
    """Weight + LM-head bytes a fused pass streams once instead of twice."""
    return float(
        spec.num_layers * spec.weight_bytes_per_layer
        + spec.vocab_size * spec.hidden_size * spec.dtype_bytes
    )


class TestTermByTermDecomposition:
    @settings(max_examples=60)
    @given(spec=specs, n=chunks, b=batches, prior=priors, sum_ctx=contexts)
    def test_hybrid_flops_equal_isolated_sum(self, spec, n, b, prior, sum_ctx):
        """Fusion saves no arithmetic: hybrid FLOPs == decode + extend, exactly."""
        assert model_flops_hybrid(spec, n, b, sum_ctx, prior) == (
            model_flops_decode(spec, b, sum_ctx)
            + model_flops_prefill_extend(spec, n, prior)
        )

    @settings(max_examples=60)
    @given(spec=specs, n=chunks, b=batches, prior=priors, sum_ctx=contexts)
    def test_hybrid_io_equals_isolated_sum_minus_one_weight_stream(
        self, spec, n, b, prior, sum_ctx
    ):
        """Fusion's whole IO saving is exactly one weight+LM-head stream."""
        assert model_io_bytes_hybrid(spec, n, b, sum_ctx, prior) == (
            model_io_bytes_decode(spec, b, sum_ctx)
            + model_io_bytes_prefill_extend(spec, n, prior)
            - _once_streamed_bytes(spec)
        )

    @settings(max_examples=40)
    @given(spec=specs, n=chunks, b=batches)
    def test_linear_io_charges_activations_per_layer(self, spec, n, b):
        """The fixed term: activation traffic scales with num_layers."""
        weights_and_head = _once_streamed_bytes(spec)
        activations = hybrid_io_bytes_linear(spec, n, b) - weights_and_head
        assert activations == (
            spec.num_layers * 8 * (n + b) * spec.hidden_size * spec.dtype_bytes
        )


class TestDegeneratePaths:
    """hybrid() must collapse onto the isolated passes to the float."""

    def test_zero_chunk_is_decode(self):
        for b, ctx in [(1, 16), (16, 16 * 1024), (64, 64 * 311)]:
            assert model.hybrid(0, b, ctx) == model.decode(b, ctx)

    def test_zero_batch_is_prefill_extend(self):
        for n, prior in [(1, 0), (512, 0), (384, 1536)]:
            assert model.hybrid(n, 0, 0, prefill_prior_context=prior) == (
                model.prefill_extend(n, prior)
            )

    @settings(max_examples=30)
    @given(b=st.integers(1, 128), ctx=st.integers(16, 2048))
    def test_zero_chunk_is_decode_property(self, b, ctx):
        assert model.hybrid(0, b, b * ctx) == model.decode(b, b * ctx)

    @settings(max_examples=30)
    @given(n=st.integers(1, 2048), prior=st.integers(0, 2048))
    def test_zero_batch_is_prefill_extend_property(self, n, prior):
        assert model.hybrid(n, 0, 0, prefill_prior_context=prior) == (
            model.prefill_extend(n, prior)
        )


class TestHybridMonotonicity:
    @settings(max_examples=40)
    @given(
        chunk=st.integers(1, 1024),
        delta=st.integers(1, 256),
        b=st.integers(1, 64),
        ctx=st.integers(16, 1024),
    )
    def test_monotone_in_chunk(self, chunk, delta, b, ctx):
        small = model.hybrid(chunk, b, b * ctx).duration
        big = model.hybrid(chunk + delta, b, b * ctx).duration
        assert big >= small

    @settings(max_examples=40)
    @given(
        chunk=st.integers(1, 1024),
        b=st.integers(1, 64),
        delta=st.integers(1, 16),
        ctx=st.integers(16, 1024),
    )
    def test_monotone_in_batch(self, chunk, b, delta, ctx):
        small = model.hybrid(chunk, b, b * ctx).duration
        big = model.hybrid(chunk, b + delta, (b + delta) * ctx).duration
        assert big >= small

    @settings(max_examples=40)
    @given(
        chunk=st.integers(1, 1024),
        b=st.integers(1, 64),
        ctx=st.integers(16, 1024),
        delta=st.integers(1, 512),
    )
    def test_monotone_in_context(self, chunk, b, ctx, delta):
        small = model.hybrid(chunk, b, b * ctx).duration
        big = model.hybrid(chunk, b, b * (ctx + delta)).duration
        assert big >= small

    @settings(max_examples=40)
    @given(
        chunk=st.integers(1, 512),
        prior=st.integers(0, 1500),
        b=st.integers(1, 64),
        ctx=st.integers(16, 1024),
    )
    def test_hybrid_at_least_prefill_alone(self, chunk, prior, b, ctx):
        hybrid = model.hybrid(chunk, b, b * ctx, prefill_prior_context=prior).duration
        extend_alone = model.prefill_extend(chunk, prior).duration
        assert hybrid >= extend_alone


class TestBreakdownConsistency:
    """BatchTiming's compute/io split must not double-count (PR-8 satellite:
    hybrid reported compute_time = linear + max(p_attn compute, p_attn IO),
    so attention IO appeared on both sides of the split)."""

    @settings(max_examples=40)
    @given(
        chunk=st.integers(1, 1024),
        prior=st.integers(0, 2048),
        b=st.integers(1, 64),
        ctx=st.integers(16, 1024),
    )
    def test_duration_bounds_busy_components(self, chunk, prior, b, ctx):
        t = model.hybrid(chunk, b, b * ctx, prefill_prior_context=prior)
        # The serial phase sum can only exceed the overlapped per-resource
        # totals: duration >= max(compute, io) + comm (plus overhead).
        assert t.duration >= max(t.compute_time, t.io_time) + t.comm_time

    @settings(max_examples=40)
    @given(b=st.integers(1, 64), ctx=st.integers(16, 1024))
    def test_single_phase_breakdown_is_exact(self, b, ctx):
        from repro.perf.roofline import PER_LAYER_OVERHEAD_S, PER_PASS_OVERHEAD_S

        overhead = PER_PASS_OVERHEAD_S + model.spec.num_layers * PER_LAYER_OVERHEAD_S
        t = model.decode(b, b * ctx)
        assert t.duration == pytest.approx(
            max(t.compute_time, t.io_time) + t.comm_time + overhead, rel=1e-12
        )

    @settings(max_examples=40)
    @given(
        chunk=st.integers(1, 1024),
        prior=st.integers(0, 2048),
        b=st.integers(1, 64),
        ctx=st.integers(16, 1024),
    )
    def test_io_time_matches_total_bytes(self, chunk, prior, b, ctx):
        """Reported io_time prices exactly model_io_bytes_hybrid."""
        t = model.hybrid(chunk, b, b * ctx, prefill_prior_context=prior)

        def io_time(io_bytes: float) -> float:
            return model.parallel.shard_io_bytes(io_bytes) / model.gpu.effective_bandwidth

        expected = io_time(
            hybrid_io_bytes_linear(model.spec, chunk, b)
        ) + io_time(
            hybrid_io_bytes_attn_prefill(model.spec, chunk, prior)
        ) + io_time(hybrid_io_bytes_attn_decode(model.spec, b, b * ctx))
        assert t.io_time == pytest.approx(expected, rel=1e-12)
        assert t.io_time == pytest.approx(
            io_time(model_io_bytes_hybrid(model.spec, chunk, b, b * ctx, prior)),
            rel=1e-12,
        )


# A spec small enough to hand-compute every byte.  H=8, 2 heads, MHA,
# GELU FFN with ffn_dim=32, 2 layers, vocab 16, fp16.
TINY = ModelSpec(
    name="tiny",
    num_layers=2,
    hidden_size=8,
    num_heads=2,
    num_kv_heads=2,
    ffn_dim=32,
    ffn_matrices=2,
    vocab_size=16,
    max_context=4096,
    dtype_bytes=2,
)


class TestPinnedHybridBytes:
    """Regression pin: the corrected hybrid IO bytes for a hand-computed
    spec, chunk=3, batch=2, sum_context=10, prior=5."""

    def test_tiny_spec_building_blocks(self):
        # attn params: Q+O = 2*64, K+V = 2*64 -> 256; ffn params: 2*8*32 = 512.
        assert TINY.attn_params_per_layer == 256
        assert TINY.ffn_params_per_layer == 512
        assert TINY.params_per_layer == 768
        assert TINY.weight_bytes_per_layer == 1536
        # KV per token per layer: 2 (K and V) * 8 * 2 bytes = 32.
        assert TINY.kv_bytes_per_token_per_layer == 32

    def test_linear_io_bytes_pinned(self):
        # weights: 2 layers * 1536 = 3072; LM head: 16*8*2 = 256;
        # activations: 2 layers * 8 * (3+2) tokens * 8 * 2 = 1280.
        assert hybrid_io_bytes_linear(TINY, 3, 2) == 3072 + 256 + 1280
        assert hybrid_io_bytes_linear(TINY, 3, 2) == 4608.0

    def test_attn_io_bytes_pinned(self):
        # prefill chunk: (prior 5 + new 3) tokens * 32 bytes * 2 layers = 512.
        assert hybrid_io_bytes_attn_prefill(TINY, 3, 5) == 512.0
        # decode: (sum_ctx 10 + batch 2) * 32 * 2 layers = 768.
        assert hybrid_io_bytes_attn_decode(TINY, 2, 10) == 768.0

    def test_total_io_bytes_pinned(self):
        assert model_io_bytes_hybrid(TINY, 3, 2, 10, 5) == 4608.0 + 512.0 + 768.0

    def test_total_matches_isolated_sum_minus_weight_stream(self):
        isolated = model_io_bytes_decode(TINY, 2, 10) + model_io_bytes_prefill_extend(
            TINY, 3, 5
        )
        assert model_io_bytes_hybrid(TINY, 3, 2, 10, 5) == isolated - (3072 + 256)

    def test_flops_pinned(self):
        # linear: 2*(3+2)*2*768 = 15360, LM head 2*(1+2)*8*16 = 768.
        assert hybrid_flops_linear(TINY, 3, 2) == 16128.0
        # p_attn: 2 layers * 4*3*(5+3)*8 = 1536; d_attn: 2 * 4*10*8 = 640.
        assert hybrid_flops_attn_prefill(TINY, 3, 5) == 1536.0
        assert hybrid_flops_attn_decode(TINY, 10) == 640.0
        assert model_flops_hybrid(TINY, 3, 2, 10, 5) == 16128.0 + 1536.0 + 640.0
