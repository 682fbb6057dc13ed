"""TenantMix parsing, sampling determinism, and fingerprint neutrality.

Tenancy must be strictly opt-in: a tenant-free generation draws nothing
from the ``tenants`` RNG stream and fingerprints byte-identically with or
without the feature compiled in.
"""

from __future__ import annotations

import pytest

from repro.models.registry import get_model
from repro.serving.request import DEFAULT_TENANT
from repro.sim.fingerprint import request_row
from repro.workloads.datasets import get_dataset
from repro.workloads.tenants import TenantMix
from repro.workloads.trace import generate_trace


def _generate(tenant_mix=None, seed=3, num=40):
    return generate_trace(
        get_dataset("sharegpt"),
        rate=8.0,
        num_requests=num,
        seed=seed,
        model=get_model("opt-13b"),
        tenant_mix=tenant_mix,
    )


# -- parsing -------------------------------------------------------------------


def test_parse_round_trips_spec_string():
    mix = TenantMix.parse("acme=0.6,beta=0.25,gamma=0.15")
    assert mix.tenants() == ("acme", "beta", "gamma")
    assert TenantMix.parse(mix.spec_string()).weights == mix.weights


def test_probabilities_normalise():
    mix = TenantMix.parse("a=2,b=2")
    assert mix.probabilities() == (("a", 0.5), ("b", 0.5))


@pytest.mark.parametrize(
    "spec",
    ["", "a=0.5,a=0.5", "a=-1", "a=0", "=1", "a", "a=x"],
)
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        TenantMix.parse(spec)


# -- sampling ------------------------------------------------------------------


def test_sampling_is_deterministic_per_seed():
    mix = TenantMix.parse("a=0.5,b=0.3,c=0.2")
    first = [r.tenant for r in _generate(mix, seed=11)]
    second = [r.tenant for r in _generate(mix, seed=11)]
    assert first == second
    assert set(first) <= {"a", "b", "c"}


def test_tenant_free_generation_is_untouched_by_the_feature():
    """No TenantMix -> the tenants stream is never drawn and every request
    carries the default tenant: the pre-tenancy workload bytes."""
    plain = _generate(None)
    assert all(r.tenant == DEFAULT_TENANT for r in plain)
    again = _generate(None)
    assert [
        (r.request_id, r.arrival_time, r.prompt_tokens, r.output_tokens)
        for r in plain
    ] == [
        (r.request_id, r.arrival_time, r.prompt_tokens, r.output_tokens)
        for r in again
    ]


def test_tenant_draws_do_not_perturb_other_streams():
    """The tenant mix draws from a dedicated stream: arrivals and lengths
    stay byte-identical with and without it."""
    plain = _generate(None)
    mixed = _generate(TenantMix.parse("a=0.5,b=0.5"))
    assert [
        (r.request_id, r.arrival_time, r.prompt_tokens, r.output_tokens)
        for r in plain
    ] == [
        (r.request_id, r.arrival_time, r.prompt_tokens, r.output_tokens)
        for r in mixed
    ]


def test_fingerprint_row_serialises_tenant_only_when_set():
    mixed = _generate(TenantMix.parse("acme=1"), seed=5, num=5)
    plain = _generate(None, seed=5, num=5)
    assert all(request_row(r)["tenant"] == "acme" for r in mixed)
    assert all("tenant" not in request_row(r) for r in plain)
