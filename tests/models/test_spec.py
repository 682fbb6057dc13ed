"""Tests for model architecture specs."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.models.registry import LLAMA2_70B, OPT_13B
from repro.models.spec import ModelSpec


def make_spec(**overrides) -> ModelSpec:
    base = dict(
        name="test",
        num_layers=4,
        hidden_size=64,
        num_heads=8,
        num_kv_heads=8,
        ffn_dim=256,
        ffn_matrices=2,
        vocab_size=1000,
        max_context=512,
    )
    base.update(overrides)
    return ModelSpec(**base)


class TestValidation:
    def test_hidden_must_divide_heads(self):
        with pytest.raises(ValueError):
            make_spec(hidden_size=65)

    def test_heads_must_divide_kv_heads(self):
        with pytest.raises(ValueError):
            make_spec(num_kv_heads=3)

    def test_head_dim(self):
        assert make_spec().head_dim == 8

    def test_gqa_detection(self):
        assert not make_spec().uses_gqa
        assert make_spec(num_kv_heads=2).uses_gqa


class TestKVSizing:
    def test_kv_bytes_per_token_per_layer(self):
        spec = make_spec()
        # 2 (K+V) * kv_dim * 2 bytes
        assert spec.kv_bytes_per_token_per_layer == 2 * 64 * 2

    def test_gqa_shrinks_kv(self):
        mha = make_spec()
        gqa = make_spec(num_kv_heads=2)
        assert gqa.kv_bytes_per_token == mha.kv_bytes_per_token // 4

    def test_opt13b_kv_matches_paper(self):
        """Paper §2.2: a 2048-token request on OPT-13B carries ~1.5 GB of KV."""
        gb = 2048 * OPT_13B.kv_bytes_per_token / 1024**3
        assert 1.4 <= gb <= 1.7

    def test_llama70b_gqa_kv_much_smaller(self):
        """GQA reduces KV transfer sizes (paper's LLaMA2-70B discussion)."""
        per_token_70b = LLAMA2_70B.kv_bytes_per_token
        per_token_13b = OPT_13B.kv_bytes_per_token
        assert per_token_70b < per_token_13b


class TestParameterCounts:
    def test_attn_params_mha(self):
        spec = make_spec()
        # Q, K, V, O all H x H for MHA
        assert spec.attn_params_per_layer == 4 * 64 * 64

    def test_ffn_params(self):
        spec = make_spec()
        assert spec.ffn_params_per_layer == 2 * 64 * 256

    def test_weight_bytes_consistent(self):
        spec = make_spec()
        assert spec.weight_bytes == spec.total_params * 2

    def test_weight_bytes_per_layer(self):
        spec = make_spec()
        assert spec.weight_bytes_per_layer == spec.params_per_layer * 2


CACHED = (
    "kv_dim",
    "kv_bytes_per_token_per_layer",
    "kv_bytes_per_token",
    "attn_params_per_layer",
    "ffn_params_per_layer",
    "params_per_layer",
    "total_params",
    "weight_bytes",
    "weight_bytes_per_layer",
)


class TestDerivedFieldCache:
    """Cached derived sizes stay invisible to the dataclass machinery."""

    def test_cached_values_match_a_fresh_spec(self):
        warm = make_spec()
        for name in CACHED:
            getattr(warm, name)
        cold = make_spec()
        assert {n: getattr(warm, n) for n in CACHED} == {
            n: getattr(cold, n) for n in CACHED
        }
        assert set(CACHED) <= set(vars(warm))

    def test_eq_hash_and_fields_ignore_the_cache(self):
        warm, cold = make_spec(), make_spec()
        for name in CACHED:
            getattr(warm, name)
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert [f.name for f in dataclasses.fields(warm)] == [
            f.name for f in dataclasses.fields(ModelSpec)
        ]
        assert not set(CACHED) & {f.name for f in dataclasses.fields(ModelSpec)}
        assert dataclasses.astuple(warm) == dataclasses.astuple(cold)

    def test_replace_computes_fresh_values(self):
        spec = make_spec()
        before = {n: getattr(spec, n) for n in CACHED}
        wider = dataclasses.replace(spec, hidden_size=128, num_kv_heads=4)
        assert not set(CACHED) & set(vars(wider))
        assert wider.kv_dim == 4 * (128 // 8)
        assert wider.attn_params_per_layer == 128 * 128 * 2 + 2 * 128 * 64
        assert wider.weight_bytes == wider.total_params * 2
        assert wider != spec
        # The original keeps its own values.
        assert {n: getattr(spec, n) for n in CACHED} == before
        assert dataclasses.replace(spec) == spec

    def test_spec_stays_frozen(self):
        spec = make_spec()
        spec.kv_dim
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.hidden_size = 128

    def test_pickle_round_trip(self):
        spec = make_spec()
        spec.weight_bytes
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and hash(clone) == hash(spec)
        assert clone.weight_bytes == spec.weight_bytes
