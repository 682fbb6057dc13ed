"""Seed-stability: same seed => identical fingerprint, new seed => new one.

This is the determinism contract every benchmark figure rests on, checked
for each scheduler the paper compares.
"""

from __future__ import annotations

import pytest

from repro.harness.cell import Cell
from repro.harness.golden import GOLDEN_TAGS

SCHEDULERS = ("windserve", "distserve", "vllm")


def _scenario(system: str, seed: int) -> Cell:
    return Cell(
        name=f"stability-{system}-s{seed}",
        system=system,
        rate_per_gpu=3.0,
        seed=seed,
        num_requests=15,
    )


@pytest.mark.parametrize("system", SCHEDULERS)
def test_same_seed_reproduces_fingerprint(system):
    first = _scenario(system, seed=42).run(trace_tags=GOLDEN_TAGS).fingerprint
    second = _scenario(system, seed=42).run(trace_tags=GOLDEN_TAGS).fingerprint
    assert first == second
    assert first.value == second.value


@pytest.mark.parametrize("system", SCHEDULERS)
def test_adjacent_seed_changes_fingerprint(system):
    base = _scenario(system, seed=42).run(trace_tags=GOLDEN_TAGS).fingerprint
    shifted = _scenario(system, seed=43).run(trace_tags=GOLDEN_TAGS).fingerprint
    assert base.value != shifted.value
    # The workload itself changed, so the trace stream must differ too.
    assert base.trace_hash != shifted.trace_hash


@pytest.mark.parametrize("system", SCHEDULERS)
def test_rng_registry_stable_across_seeds(system):
    """Which streams are touched is seed-independent (only values change)."""
    a = _scenario(system, seed=42).run(trace_tags=GOLDEN_TAGS).rng_registry
    b = _scenario(system, seed=43).run(trace_tags=GOLDEN_TAGS).rng_registry
    assert a == b
    assert a  # the workload generator touched named streams
