"""Roofline batch-latency estimation.

One forward pass takes ``max(compute_time, io_time)`` on each GPU (compute
and HBM traffic overlap in well-pipelined kernels) plus tensor-parallel
all-reduce and pipeline-parallel activation-transfer time, plus a small
per-layer kernel-launch overhead.  The paper's Profiler fits exactly these
shapes (``a_p N + b_p N^2 + c_p`` for prefill, ``a_d sum(L) + c_d`` for
decode); here we derive the constants from hardware and model specs.

:class:`LatencyModel` builds those constants once, at construction: the
integer operands of the :mod:`repro.models.costs` formulas and the float
divisors of :class:`~repro.models.parallelism.ParallelConfig`'s sharding
and communication terms.  Each pricing method then runs the same float
steps, in the same order, as composing those readable functions would,
so every result is bit-identical to them
(``tests/perf/test_roofline_exact.py``).  Only integers are regrouped,
and Python integers are exact at any size.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.hardware.gpu import GPUSpec
from repro.models.parallelism import (
    GB,
    NCCL_LAUNCH_S,
    PP_HOP_OVERHEAD_S,
    PP_LINK_GBPS,
    ParallelConfig,
)
from repro.models.spec import ModelSpec

# Fixed CPU-side + launch overhead per forward pass, per layer.  Covers
# scheduler step, kernel launches, sampling.
PER_LAYER_OVERHEAD_S = 8e-6
PER_PASS_OVERHEAD_S = 1.5e-3

# GEMM efficiency grows with the token (M) dimension; half of peak is
# reached around this many tokens.  Chunked prefill suffers from this:
# a 512-token chunk runs its GEMMs measurably below a 2048-token prefill.
GEMM_SATURATION_HALF_TOKENS = 96


def gemm_saturation(tokens: int) -> float:
    """Fraction of the large-GEMM compute efficiency achieved at ``tokens``."""
    if tokens <= 0:
        return 1.0
    return tokens / (tokens + GEMM_SATURATION_HALF_TOKENS)


class BatchTiming(NamedTuple):
    """Latency decomposition of one forward pass on one pipeline stage set.

    ``duration`` is wall-clock; ``compute_time`` and ``io_time`` are the
    separate tensor-core-busy and HBM-busy components used for the Fig. 2
    utilisation accounting.
    """

    duration: float
    compute_time: float
    io_time: float
    comm_time: float

    @property
    def compute_bound(self) -> bool:
        return self.compute_time >= self.io_time


_IDLE = BatchTiming(0.0, 0.0, 0.0, 0.0)


class LatencyModel:
    """Estimates forward-pass latency for a (model, GPU, parallelism) triple.

    ``spec``, ``gpu`` and ``parallel`` are frozen, so the constants built
    here cannot go stale; a re-planned pair builds new instances, each
    with its own model.
    """

    def __init__(self, spec: ModelSpec, gpu: GPUSpec, parallel: ParallelConfig) -> None:
        self.spec = spec
        self.gpu = gpu
        self.parallel = parallel

        layers, h, dtype = spec.num_layers, spec.hidden_size, spec.dtype_bytes
        kv = spec.kv_bytes_per_token_per_layer
        # Per-layer operands of the isolated-pass formulas in models/costs.py.
        self._layers = layers
        self._attn2 = 2 * spec.attn_params_per_layer
        self._ffn2 = 2 * spec.ffn_params_per_layer
        self._h4 = 4 * h
        self._kv = kv
        self._weights = spec.weight_bytes_per_layer
        self._act = 8 * h * dtype  # activation bytes per token
        self._act_kv = self._act + kv  # ... plus its KV write
        self._lm_flops = 2 * h * spec.vocab_size  # per LM-head row
        self._lm_bytes = spec.vocab_size * h * dtype
        # Whole-model operands of the hybrid group formulas.
        self._linear2 = 2 * layers * spec.params_per_layer
        self._linear_bytes = layers * self._weights + self._lm_bytes
        self._linear_act = layers * self._act
        self._attn_h4 = layers * 4 * h
        self._attn_kv = layers * kv

        # Float divisors: TP sharding (``None`` when tp == 1: no division),
        # the GPU's achievable rates, and the fixed launch overhead.
        tp, pp = parallel.tp, parallel.pp
        self._tp_div = tp * parallel.tp_efficiency if tp > 1 else None
        self._flops = gpu.effective_flops
        self._bw = gpu.effective_bandwidth
        self._overhead = PER_PASS_OVERHEAD_S + layers * PER_LAYER_OVERHEAD_S

        # ParallelConfig.tp_allreduce_time / pp_activation_time operands.
        self._comm = tp > 1 or pp > 1
        self._token_bytes = h * dtype
        self._tp_comm = tp > 1
        self._allreduces = 2 * layers
        self._ring = 2 * (tp - 1) / tp
        self._tp_link = parallel.tp_link_gbps * GB
        self._pp_comm = pp > 1
        self._pp_hops = pp - 1
        self._pp_link = PP_LINK_GBPS * GB

        #: Time to stream every weight shard once more (SBD's second kernel set).
        self.weight_stream_time = (
            parallel.shard_io_bytes(spec.weight_bytes) / gpu.effective_bandwidth
        )

    # -- public API ---------------------------------------------------------
    #
    # Every method guards non-positive sizes first, so the comm token count
    # is always positive and the TP/PP terms need only their degree checks.

    def prefill(self, num_tokens: int) -> BatchTiming:
        """One prefill pass over ``num_tokens`` prompt tokens (possibly batched)."""
        n = num_tokens
        if n <= 0:
            return _IDLE
        flops = (
            self._layers * (float(n * self._attn2 + n * n * self._h4) + float(n * self._ffn2))
            + self._lm_flops
        )
        io = self._layers * float(self._weights + n * self._act_kv) + self._lm_bytes
        if self._tp_div is not None:
            flops /= self._tp_div
            io /= self._tp_div
        compute = flops / (self._flops * (n / (n + GEMM_SATURATION_HALF_TOKENS)))
        io /= self._bw
        comm = 0.0
        if self._comm:
            nbytes = n * self._token_bytes
            if self._tp_comm:
                comm = self._allreduces * (self._ring * nbytes / self._tp_link + NCCL_LAUNCH_S)
            if self._pp_comm:
                comm += self._pp_hops * (nbytes / self._pp_link + PP_HOP_OVERHEAD_S)
        busy = compute if compute >= io else io
        return BatchTiming(busy + comm + self._overhead, compute, io, comm)

    def prefill_extend(self, new_tokens: int, prior_context: int) -> BatchTiming:
        """Prefill one chunk of ``new_tokens`` attending over ``prior_context``
        already-cached tokens (chunked-prefill step)."""
        n, p = new_tokens, prior_context
        if n <= 0:
            return _IDLE
        flops = (
            self._layers * float(n * self._attn2 + n * (p + n) * self._h4 + n * self._ffn2)
            + self._lm_flops
        )
        io = (
            self._layers * float(self._weights + p * self._kv + n * self._act_kv)
            + self._lm_bytes
        )
        if self._tp_div is not None:
            flops /= self._tp_div
            io /= self._tp_div
        compute = flops / (self._flops * (n / (n + GEMM_SATURATION_HALF_TOKENS)))
        io /= self._bw
        comm = 0.0
        if self._comm:
            nbytes = n * self._token_bytes
            if self._tp_comm:
                comm = self._allreduces * (self._ring * nbytes / self._tp_link + NCCL_LAUNCH_S)
            if self._pp_comm:
                comm += self._pp_hops * (nbytes / self._pp_link + PP_HOP_OVERHEAD_S)
        busy = compute if compute >= io else io
        return BatchTiming(busy + comm + self._overhead, compute, io, comm)

    def decode(self, batch_size: int, sum_context: int) -> BatchTiming:
        """One decode iteration for ``batch_size`` requests with total context
        ``sum_context`` tokens.  Decode kernels are bandwidth-bound; no GEMM
        saturation penalty is applied to their (irrelevant) compute estimate."""
        b, ctx = batch_size, sum_context
        if b <= 0:
            return _IDLE
        flops = (
            self._layers * (float(b * self._attn2 + ctx * self._h4) + float(b * self._ffn2))
            + b * self._lm_flops
        )
        io = (
            self._layers * float(self._weights + (ctx + b) * self._kv + b * self._act)
            + self._lm_bytes
        )
        if self._tp_div is not None:
            flops /= self._tp_div
            io /= self._tp_div
        compute = flops / self._flops
        io /= self._bw
        comm = 0.0
        if self._comm:
            nbytes = b * self._token_bytes
            if self._tp_comm:
                comm = self._allreduces * (self._ring * nbytes / self._tp_link + NCCL_LAUNCH_S)
            if self._pp_comm:
                comm += self._pp_hops * (nbytes / self._pp_link + PP_HOP_OVERHEAD_S)
        busy = compute if compute >= io else io
        return BatchTiming(busy + comm + self._overhead, compute, io, comm)

    def hybrid(
        self,
        prefill_tokens: int,
        batch_size: int,
        sum_context: int,
        prefill_prior_context: int = 0,
    ) -> BatchTiming:
        """One fused pass combining a prefill chunk and decode requests
        (vLLM-style hybrid continuous batching / chunked prefill)."""
        n, b, ctx, p = prefill_tokens, batch_size, sum_context, prefill_prior_context
        if n <= 0:
            return self.decode(b, ctx)
        if b <= 0:
            return self.prefill_extend(n, p)
        tokens = n + b
        # Linear ops (QKVO projections, FFN, LM head) fuse across prefill and
        # decode tokens: weights stream once, compute covers every token, and
        # each token pays the per-layer activation traffic (the same
        # 8*tokens*H*dtype bytes *per layer* that decode()/prefill() charge).
        # Attention kernels run per phase: the prefill chunk's score/value
        # GEMMs (compute-bound, re-reading prior-chunk KV) then the decode
        # batch's paged attention (bandwidth-bound KV sweep).
        linear_flops = float(tokens * self._linear2 + (1 + b) * self._lm_flops)
        linear_io = float(self._linear_bytes + tokens * self._linear_act)
        p_flops = float(n * (p + n) * self._attn_h4)
        p_io = float((p + n) * self._attn_kv)
        d_flops = float(ctx * self._attn_h4)
        d_io = float((ctx + b) * self._attn_kv)
        tp_div = self._tp_div
        if tp_div is not None:
            linear_flops /= tp_div
            linear_io /= tp_div
            p_flops /= tp_div
            p_io /= tp_div
            d_flops /= tp_div
            d_io /= tp_div
        peak, bw = self._flops, self._bw
        linear_compute = linear_flops / (peak * (tokens / (tokens + GEMM_SATURATION_HALF_TOKENS)))
        linear_io /= bw
        p_compute = p_flops / (peak * (n / (n + GEMM_SATURATION_HALF_TOKENS)))
        p_io /= bw
        d_compute = d_flops / peak
        d_io /= bw
        comm = 0.0
        if self._comm:
            nbytes = tokens * self._token_bytes
            if self._tp_comm:
                comm = self._allreduces * (self._ring * nbytes / self._tp_link + NCCL_LAUNCH_S)
            if self._pp_comm:
                comm += self._pp_hops * (nbytes / self._pp_link + PP_HOP_OVERHEAD_S)
        # Each group overlaps its own compute against its own HBM traffic;
        # the groups themselves serialise.  The breakdown sums each group's
        # tensor-core-busy and HBM-busy components, so (as for the
        # single-phase passes) duration >= max(compute_time, io_time) +
        # comm_time and neither side double-counts the other's traffic.
        busy = (
            (linear_compute if linear_compute >= linear_io else linear_io)
            + (p_compute if p_compute >= p_io else p_io)
            + (d_compute if d_compute >= d_io else d_io)
        )
        return BatchTiming(
            busy + comm + self._overhead,
            linear_compute + p_compute + d_compute,
            linear_io + p_io + d_io,
            comm,
        )

    def pipeline_slots(self) -> int:
        """Concurrent batches the instance keeps in flight (PP pipelining)."""
        return self.parallel.pp
