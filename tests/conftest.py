"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.hardware import A800_80GB, NodeTopology
from repro.models import ParallelConfig, get_model
from repro.perf import LatencyModel, StreamContentionModel
from repro.serving import SLO, SystemConfig
from repro.serving.instance import InstanceConfig
from repro.sim import Simulator

# ``HYPOTHESIS_PROFILE=ci`` (the CI tier-1 step) searches deeper: five times
# Hypothesis's default example count and no per-example deadline.  Tests
# that pin their own ``max_examples`` opt in through :func:`search_depth`.
# Without the variable the default profile, and every count, is unchanged.
settings.register_profile("ci", max_examples=500, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def search_depth(examples: int) -> int:
    """``examples`` under the default profile, scaled with the loaded one."""
    default = settings.get_profile("default").max_examples
    return examples * settings().max_examples // default


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def topology() -> NodeTopology:
    return NodeTopology(num_gpus=8)


@pytest.fixture
def small_topology() -> NodeTopology:
    return NodeTopology(num_gpus=4)


@pytest.fixture
def opt13b():
    return get_model("opt-13b")


@pytest.fixture
def llama70b():
    return get_model("llama2-70b")


@pytest.fixture
def tp2() -> ParallelConfig:
    return ParallelConfig(tp=2)


@pytest.fixture
def latency_opt13b_tp2(opt13b, tp2) -> LatencyModel:
    return LatencyModel(opt13b, A800_80GB, tp2)


@pytest.fixture
def contention() -> StreamContentionModel:
    return StreamContentionModel()


@pytest.fixture
def opt13b_config(opt13b) -> SystemConfig:
    return SystemConfig(model=opt13b, slo=SLO(ttft=0.25, tpot=0.1))


@pytest.fixture
def tiny_instance_config() -> InstanceConfig:
    """Small KV pool so memory-pressure paths trigger quickly in tests."""
    return InstanceConfig(kv_capacity_override_tokens=4096, cpu_swap_gb=16.0)
