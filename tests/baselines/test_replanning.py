"""Tests for the replanning DistServe baseline and its drain-and-rebuild restart."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.baselines.replanning import ReplanningDistServeSystem, placement_capacities
from repro.hardware.gpu import A800_80GB
from repro.hardware.topology import NodeTopology
from repro.models.parallelism import ParallelConfig
from repro.models.registry import get_model
from repro.serving.metrics import SLO
from repro.serving.placement import plan_pd_placement
from repro.serving.system import SystemConfig
from repro.workloads.datasets import LONGBENCH, SHAREGPT
from repro.workloads.shifts import WorkloadPhase, generate_shifting_trace


def make_alternatives():
    chat = plan_pd_placement(
        NodeTopology(num_gpus=8), ParallelConfig(tp=2, pp=1), ParallelConfig(tp=2, pp=3)
    )
    summarise = plan_pd_placement(
        NodeTopology(num_gpus=8), ParallelConfig(tp=2, pp=3), ParallelConfig(tp=2, pp=1)
    )
    return [chat, summarise]


def make_system(trace: bool = False, **kwargs) -> ReplanningDistServeSystem:
    model = get_model("opt-13b")
    return ReplanningDistServeSystem(
        SystemConfig(model=model, slo=SLO(ttft=0.3, tpot=0.1), trace_enabled=trace),
        alternatives=make_alternatives(),
        topology=NodeTopology(num_gpus=8),
        **kwargs,
    )


def shifting_trace(seed=1, n=250):
    return generate_shifting_trace(
        [
            WorkloadPhase(SHAREGPT, rate=12.0, num_requests=n),
            WorkloadPhase(LONGBENCH, rate=6.0, num_requests=n),
        ],
        seed=seed,
        model=get_model("opt-13b"),
    )


class TestScoring:
    def test_capacities_positive(self):
        model = get_model("opt-13b")
        for placement in make_alternatives():
            prefill, decode = placement_capacities(model, A800_80GB, placement, 1000)
            assert prefill > 0 and decode > 0

    def test_prefill_heavy_placement_scores_higher_on_long_prompts(self):
        system = make_system()
        chat, summarise = system.alternatives
        long_prompt_pattern = (6.0, 2800.0, 90.0)
        assert system.score(summarise, long_prompt_pattern) > system.score(
            chat, long_prompt_pattern
        )

    def test_decode_heavy_placement_scores_higher_on_chat(self):
        system = make_system()
        chat, summarise = system.alternatives
        chat_pattern = (14.0, 700.0, 200.0)
        assert system.score(chat, chat_pattern) > system.score(summarise, chat_pattern)

    def test_empty_alternatives_rejected(self):
        model = get_model("opt-13b")
        with pytest.raises(ValueError):
            ReplanningDistServeSystem(
                SystemConfig(model=model), alternatives=[], topology=NodeTopology()
            )


class TestReplanBehaviour:
    def test_shift_triggers_replan(self):
        system = make_system()
        system.run_to_completion(shifting_trace())
        assert system.replan_count >= 1
        assert system.current_index == 1  # ended on the prefill-heavy plan

    def test_no_replan_on_stable_workload(self):
        from repro.workloads.trace import generate_trace

        system = make_system()
        trace = generate_trace(
            SHAREGPT, rate=12.0, num_requests=300, seed=2, model=get_model("opt-13b")
        )
        system.run_to_completion(trace)
        assert system.replan_count == 0

    def test_downtime_stalls_execution(self):
        system = make_system(trace=True, replan_downtime=60.0)
        system.load_workload(shifting_trace())
        system.sim.run_until_idle()
        assert system.replan_count >= 1
        start = system.trace.filter(tag="replan-start")[0]
        done = system.trace.filter(tag="replan-done")[0]
        assert done.time - start.time == pytest.approx(60.0, abs=1e-9)
        # Nothing runs while the pair restarts.
        launched = [r.time for r in system.trace.filter(tag="batch-start")]
        assert not [t for t in launched if start.time < t < done.time]
        assert any(t >= done.time for t in launched)

    def test_all_requests_complete_despite_replan(self):
        system = make_system()
        trace = shifting_trace()
        metrics = system.run_to_completion(trace)
        assert len(metrics.completed) == len(trace)
        assert system.prefill_instance.kv.used_gpu_blocks == 0
        assert system.decode_instance.kv.used_gpu_blocks == 0

    def test_replan_reconfigures_instances(self):
        system = make_system()
        system.run_to_completion(shifting_trace())
        assert system.prefill_instance.parallel.pp == 3
        assert system.decode_instance.parallel.pp == 1
        # Each replan drained both instances and rebuilt the pair: the
        # pre-replan pools are archived for the KV audit.
        assert system.metrics.counters["instance_crash"] == 2 * system.replan_count
        assert len(system.prefill_instance.retired_kv) == system.replan_count


class TestReconfigure:
    """A replan drains the pair, rebuilds it on the new placement, restarts it."""

    def test_idle_instance_reconfigures(self):
        system = make_system()
        old_capacity = system.decode_instance.kv.gpu_capacity_blocks
        system.crash()
        system.rebuild_placement(system.alternatives[1])
        system.restart()
        inst = system.decode_instance
        assert not system.halted
        assert len(inst.lanes) == 1
        assert inst.gpus == system.alternatives[1].decode_gpus
        assert inst.kv.gpu_capacity_blocks < old_capacity

    def test_busy_instance_refuses(self):
        system = make_system()
        with pytest.raises(RuntimeError):
            system.rebuild_placement(system.alternatives[1])  # not drained

    def test_restart_loses_live_kv(self):
        system = make_system()
        trace = shifting_trace(n=60)
        system.load_workload(trace)
        system.sim.run(until=3.0)
        live = [r for r in trace if r.prefilled_tokens and not r.finished]
        assert live
        system._start_replan(1)
        system.sim.run_until_idle()
        # Every request that held KV at the replan re-prefilled, then finished.
        assert system.metrics.counters["crash_requeued"] >= len(live)
        assert len(system.metrics.completed) == len(trace)
        assert system.current_index == 1

    def test_replaced_instances_are_released(self):
        """A rebuild unhooks the replaced pair from the simulator: nothing
        keeps a dead instance (and its lanes) reachable for the run."""
        # Only the replans below: no pattern-driven ones in between.
        system = make_system(replan_check_interval=float("inf"), replan_downtime=1.0)
        trace = shifting_trace(n=60)
        system.load_workload(trace)
        replaced = []
        for target in (1, 0, 1):
            system.sim.run(until=system.sim.now + 2.0)
            replaced.append(weakref.ref(system.decode_instance))
            system._start_replan(target)
        system.sim.run_until_idle()
        assert system.replan_count == 3
        assert len(system.metrics.completed) == len(trace)
        gc.collect()
        assert [ref() for ref in replaced] == [None, None, None]
        assert len(system.sim._return_hooks) == len(system.instances)
