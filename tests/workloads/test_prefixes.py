"""Tests for shared-prefix populations (PrefixLibrary / PrefixMix) and
their integration with trace generation and serialisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.registry import get_model
from repro.workloads.datasets import get_dataset
from repro.workloads.prefixes import (
    NO_PREFIX,
    PrefixLibrary,
    PrefixMix,
    prefix_hash,
)
from repro.workloads.trace import generate_trace

MIX_SPEC = "none=0.25,assistant=0.5:384,fewshot=0.25:640"


def test_prefix_hash_is_stable_and_nonzero():
    assert prefix_hash("assistant", 384) == prefix_hash("assistant", 384)
    assert prefix_hash("assistant", 384) != prefix_hash("assistant", 385)
    assert prefix_hash("assistant", 384) != prefix_hash("fewshot", 384)
    assert prefix_hash("assistant", 384) > 0


def test_library_rejects_duplicates_and_reserved_name():
    with pytest.raises(ValueError, match="twice"):
        PrefixLibrary.build([("a", 64), ("a", 128)])
    with pytest.raises(ValueError, match="reserved"):
        PrefixLibrary.build([(NO_PREFIX, 64)])


def test_mix_parse_round_trips():
    mix = PrefixMix.parse(MIX_SPEC)
    assert mix.spec_string() == MIX_SPEC
    assert PrefixMix.parse(mix.spec_string()) == mix


@pytest.mark.parametrize(
    "bad, match",
    [
        ("assistant", "expected name=weight"),
        ("assistant=0.5", "needs a token length"),
        ("none=0.5:64", "takes no token length"),
        ("assistant=x:384", "non-numeric weight"),
        ("assistant=0.5:x", "non-integer token length"),
        ("assistant=0:384", "positive weight"),
        ("assistant=0.5:384,assistant=0.5:384", "twice"),
        ("ghost=0.5", "needs a token length"),
        ("", "at least one entry"),
    ],
)
def test_mix_parse_rejects(bad, match):
    with pytest.raises(ValueError, match=match):
        PrefixMix.parse(bad)


def test_uniform_mix():
    mix = PrefixMix.uniform(8, 512, none=0.2)
    probs = dict(mix.probabilities())
    assert probs[NO_PREFIX] == pytest.approx(0.2)
    assert probs["p0"] == pytest.approx(0.1)
    assert PrefixMix.parse(mix.spec_string()) == mix


def test_sample_is_deterministic_and_maps_none_to_zero():
    mix = PrefixMix.parse(MIX_SPEC)
    a = mix.sample(np.random.default_rng(7), 200)
    b = mix.sample(np.random.default_rng(7), 200)
    assert a == b
    hashes = {h for h, _ in a}
    assert 0 in hashes  # some requests drew the no-prefix slot
    assert len(hashes) == 3  # none + two templates
    for h, tokens in a:
        assert (h == 0) == (tokens == 0)


def test_generate_trace_prefix_stream_only_when_mix_given():
    dataset, model = get_dataset("sharegpt"), get_model("opt-13b")
    plain = generate_trace(dataset, rate=8.0, num_requests=30, seed=0, model=model)
    assert all("prefix" not in name for name in plain.rng_registry)
    assert all(r.prefix_len == 0 and r.prefix_hash == 0 for r in plain)

    mixed = generate_trace(
        dataset,
        rate=8.0,
        num_requests=30,
        seed=0,
        model=model,
        prefix_mix=PrefixMix.parse(MIX_SPEC),
    )
    assert any("prefix" in name for name in mixed.rng_registry)
    carried = [r for r in mixed if r.prefix_len]
    assert carried, "the mix should assign at least one shared prefix"
    for r in carried:
        assert 0 < r.prefix_len < r.prompt_tokens
        assert r.prefix_hash != 0


def test_prefix_mix_leaves_other_streams_untouched():
    """Adding the prefix stream must not perturb arrivals or lengths."""
    dataset, model = get_dataset("sharegpt"), get_model("opt-13b")
    plain = generate_trace(dataset, rate=8.0, num_requests=30, seed=0, model=model)
    mixed = generate_trace(
        dataset,
        rate=8.0,
        num_requests=30,
        seed=0,
        model=model,
        prefix_mix=PrefixMix.parse(MIX_SPEC),
    )
    for a, b in zip(plain, mixed):
        assert a.arrival_time == b.arrival_time
        assert a.prompt_tokens == b.prompt_tokens
        assert a.output_tokens == b.output_tokens
