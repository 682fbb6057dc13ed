"""``LatencyModel`` prices bit-identically to the readable cost formulas.

``LatencyModel`` builds its integer operands and float divisors once per
instance and prices each pass in one frame.  The reference below prices
the same passes the long way, straight from :mod:`repro.models.costs` and
:class:`ParallelConfig`, in the step order the roofline documents:
shard, divide by the (saturated) peak rate, ``max``, ``+ comm``,
``+ overhead``.  Every ``BatchTiming`` field must compare ``==``, for every
registry model and parallel shape, at sizes whose FLOP counts pass 2**53.

The registry's dimensions are multiples of large powers of two, so their
integer counts stay exactly representable as floats far past 2**53 and
would hide a regrouped float step.  ``ODD`` has odd dimensions: its counts
round as soon as they pass 2**53, so a float step done in another order
or on another grouping of the integers shows up as a mismatch.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import example, given, settings, strategies as st

from repro.hardware.gpu import GPU_REGISTRY
from repro.models.costs import (
    hybrid_flops_attn_decode,
    hybrid_flops_attn_prefill,
    hybrid_flops_linear,
    hybrid_io_bytes_attn_decode,
    hybrid_io_bytes_attn_prefill,
    hybrid_io_bytes_linear,
    model_flops_decode,
    model_flops_prefill,
    model_flops_prefill_extend,
    model_io_bytes_decode,
    model_io_bytes_prefill,
    model_io_bytes_prefill_extend,
)
from repro.models.parallelism import ParallelConfig
from repro.models.registry import MODEL_REGISTRY, OPT_13B
from repro.models.spec import ModelSpec
from repro.perf.roofline import (
    PER_LAYER_OVERHEAD_S,
    PER_PASS_OVERHEAD_S,
    LatencyModel,
    gemm_saturation,
)
from tests.conftest import search_depth

_IDLE = (0.0, 0.0, 0.0, 0.0)


# -- reference: compose the readable spec ------------------------------------


def _compute(m: LatencyModel, flops: float, saturation_tokens: int | None) -> float:
    sat = gemm_saturation(saturation_tokens) if saturation_tokens is not None else 1.0
    return m.parallel.shard_flops(flops) / (m.gpu.effective_flops * sat)


def _io(m: LatencyModel, io_bytes: float) -> float:
    return m.parallel.shard_io_bytes(io_bytes) / m.gpu.effective_bandwidth


def _comm(m: LatencyModel, tokens: int) -> float:
    comm = m.parallel.tp_allreduce_time(m.spec, tokens)
    comm += m.parallel.pp_activation_time(m.spec, tokens)
    return comm


def _overhead(m: LatencyModel) -> float:
    return PER_PASS_OVERHEAD_S + m.spec.num_layers * PER_LAYER_OVERHEAD_S


def _assemble(m: LatencyModel, compute: float, io: float, tokens: int) -> tuple:
    comm = _comm(m, tokens)
    return (max(compute, io) + comm + _overhead(m), compute, io, comm)


def ref_prefill(m: LatencyModel, n: int) -> tuple:
    if n <= 0:
        return _IDLE
    compute = _compute(m, model_flops_prefill(m.spec, n), n)
    return _assemble(m, compute, _io(m, model_io_bytes_prefill(m.spec, n)), n)


def ref_prefill_extend(m: LatencyModel, n: int, prior: int) -> tuple:
    if n <= 0:
        return _IDLE
    compute = _compute(m, model_flops_prefill_extend(m.spec, n, prior), n)
    io = _io(m, model_io_bytes_prefill_extend(m.spec, n, prior))
    return _assemble(m, compute, io, n)


def ref_decode(m: LatencyModel, b: int, ctx: int) -> tuple:
    if b <= 0:
        return _IDLE
    compute = _compute(m, model_flops_decode(m.spec, b, ctx), None)
    return _assemble(m, compute, _io(m, model_io_bytes_decode(m.spec, b, ctx)), b)


def ref_hybrid(m: LatencyModel, n: int, b: int, ctx: int, prior: int) -> tuple:
    if n <= 0:
        return ref_decode(m, b, ctx)
    if b <= 0:
        return ref_prefill_extend(m, n, prior)
    spec, tokens = m.spec, n + b
    lc = _compute(m, hybrid_flops_linear(spec, n, b), tokens)
    li = _io(m, hybrid_io_bytes_linear(spec, n, b))
    pc = _compute(m, hybrid_flops_attn_prefill(spec, n, prior), n)
    pi = _io(m, hybrid_io_bytes_attn_prefill(spec, n, prior))
    dc = _compute(m, hybrid_flops_attn_decode(spec, ctx), None)
    di = _io(m, hybrid_io_bytes_attn_decode(spec, b, ctx))
    busy = max(lc, li) + max(pc, pi) + max(dc, di)
    comm = _comm(m, tokens)
    return (busy + comm + _overhead(m), lc + pc + dc, li + pi + di, comm)


# -- inputs -------------------------------------------------------------------


ODD = ModelSpec(
    name="odd",
    num_layers=7,
    hidden_size=5005,
    num_heads=5,
    num_kv_heads=1,
    ffn_dim=13001,
    ffn_matrices=3,
    vocab_size=50021,
    max_context=4096,
)
SPECS = {**MODEL_REGISTRY, ODD.name: ODD}


@lru_cache(maxsize=None)
def _model(name: str, gpu: str, tp: int, pp: int, link: float) -> LatencyModel:
    parallel = ParallelConfig(tp=tp, pp=pp, tp_link_gbps=link)
    return LatencyModel(SPECS[name], GPU_REGISTRY[gpu], parallel)


# Half the draws take ODD, the one spec whose large counts round.
models = st.builds(
    _model,
    st.one_of(st.just(ODD.name), st.sampled_from(sorted(MODEL_REGISTRY))),
    st.sampled_from(sorted(GPU_REGISTRY)),
    st.sampled_from([1, 2, 4, 8]),
    st.sampled_from([1, 2, 4]),
    st.sampled_from([200.0, 25.0]),
)
# Serving-sized counts, and counts up to 10**7 tokens: a pass that size
# runs far past 2**53 FLOPs.
sizes = st.one_of(st.integers(-4, 4096), st.integers(2**20, 10**7))

TP2 = _model(OPT_13B.name, "a800-80gb", 2, 1, 200.0)
TP2PP2 = _model(OPT_13B.name, "a800-80gb", 2, 2, 200.0)


def _same(got, want) -> None:
    assert tuple(got) == want, (got, want)


# -- bit-exactness ------------------------------------------------------------


@settings(max_examples=search_depth(200))
@given(m=models, n=sizes)
@example(m=TP2, n=0)
@example(m=TP2, n=-3)
@example(m=TP2PP2, n=10**7)
def test_prefill_is_exact(m, n):
    _same(m.prefill(n), ref_prefill(m, n))


@settings(max_examples=search_depth(200))
@given(m=models, n=sizes, prior=sizes)
@example(m=TP2, n=0, prior=512)
@example(m=TP2, n=-1, prior=0)
@example(m=TP2PP2, n=10**7, prior=10**7)
def test_prefill_extend_is_exact(m, n, prior):
    _same(m.prefill_extend(n, prior), ref_prefill_extend(m, n, prior))


@settings(max_examples=search_depth(200))
@given(m=models, b=sizes, ctx=sizes)
@example(m=TP2, b=0, ctx=0)
@example(m=TP2, b=-2, ctx=4096)
@example(m=TP2PP2, b=10**7, ctx=10**7)
def test_decode_is_exact(m, b, ctx):
    _same(m.decode(b, ctx), ref_decode(m, b, ctx))


@settings(max_examples=search_depth(200))
@given(m=models, n=sizes, b=sizes, ctx=sizes, prior=sizes)
@example(m=TP2, n=0, b=16, ctx=16 * 1024, prior=0)  # falls through to decode
@example(m=TP2, n=-5, b=0, ctx=0, prior=0)  # ... to an idle decode
@example(m=TP2, n=512, b=0, ctx=0, prior=1024)  # falls through to prefill_extend
@example(m=TP2, n=512, b=-1, ctx=0, prior=0)
@example(m=TP2PP2, n=10**7, b=10**7, ctx=10**7, prior=10**7)
def test_hybrid_is_exact(m, n, b, ctx, prior):
    _same(m.hybrid(n, b, ctx, prefill_prior_context=prior), ref_hybrid(m, n, b, ctx, prior))


def test_largest_examples_pass_2_53_flops():
    """The largest sizes drawn above really leave the exact-float range."""
    assert model_flops_prefill(OPT_13B, 10**7) > 2**53
    assert hybrid_flops_attn_prefill(OPT_13B, 10**7, 10**7) > 2**53
    # One layer's ODD prefill count at that size is an integer no float
    # holds exactly.
    n = 9_999_991
    per_layer = 2 * n * ODD.attn_params_per_layer + 4 * n * n * ODD.hidden_size
    assert per_layer > 2**53 and int(float(per_layer)) != per_layer


@given(m=models)
def test_weight_stream_time_is_one_sharded_weight_read(m):
    assert m.weight_stream_time == _io(m, m.spec.weight_bytes)
