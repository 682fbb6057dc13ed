"""Tests for the ServingSystem base class plumbing."""

from __future__ import annotations

import pytest

from repro.baselines.distserve import DistServeSystem
from repro.hardware.topology import NodeTopology
from repro.models.registry import get_model
from repro.serving.instance import InstanceConfig
from repro.serving.request import Request
from repro.serving.system import ServingSystem, SystemConfig
from repro.workloads.datasets import SHAREGPT
from repro.workloads.trace import generate_trace


def make_system() -> DistServeSystem:
    return DistServeSystem(
        SystemConfig(model=get_model("opt-13b")), topology=NodeTopology(num_gpus=4)
    )


class TestConfig:
    def test_decode_instance_falls_back(self):
        cfg = SystemConfig(model=get_model("opt-13b"))
        assert cfg.decode_instance_config is cfg.instance

    def test_decode_instance_override(self):
        override = InstanceConfig(max_batched_tokens=7)
        cfg = SystemConfig(model=get_model("opt-13b"), decode_instance=override)
        assert cfg.decode_instance_config is override

    def test_trace_enabled_flag(self):
        cfg = SystemConfig(model=get_model("opt-13b"), trace_enabled=True)
        system = DistServeSystem(cfg, topology=NodeTopology(num_gpus=4))
        assert system.trace.enabled


class TestPlumbing:
    def test_register_links_system(self):
        system = make_system()
        assert system.prefill_instance.system is system
        assert system.decode_instance.system is system
        assert system.instances == [system.prefill_instance, system.decode_instance]

    def test_num_gpus_sums_instances(self):
        assert make_system().num_gpus == 4

    def test_base_submit_abstract(self):
        system = ServingSystem(
            SystemConfig(model=get_model("opt-13b")), topology=NodeTopology(num_gpus=4)
        )
        with pytest.raises(NotImplementedError):
            system.submit(Request(1, 10, 10, 0.0))

    def test_load_workload_counts(self):
        system = make_system()
        trace = generate_trace(SHAREGPT, rate=4.0, num_requests=9, seed=0)
        assert system.load_workload(trace) == 9

    def test_arrivals_fire_at_arrival_times(self):
        system = make_system()
        request = Request(1, prompt_tokens=100, output_tokens=2, arrival_time=3.5)
        system.load_workload([request])
        system.sim.run(max_events=1)
        assert system.sim.now == pytest.approx(3.5)
        assert system.submitted == 1

    def test_run_until_horizon(self):
        system = make_system()
        trace = generate_trace(SHAREGPT, rate=4.0, num_requests=30, seed=0,
                               model=get_model("opt-13b"))
        system.load_workload(trace)
        system.run(until=1.0)
        assert system.sim.now == pytest.approx(1.0)
        assert system.metrics.horizon == pytest.approx(1.0)

    def test_run_to_completion_returns_metrics(self):
        system = make_system()
        trace = generate_trace(SHAREGPT, rate=4.0, num_requests=20, seed=0,
                               model=get_model("opt-13b"))
        metrics = system.run_to_completion(trace)
        assert metrics is system.metrics
        assert len(metrics.completed) == 20
        assert metrics.horizon > 0
