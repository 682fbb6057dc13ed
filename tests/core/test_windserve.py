"""Tests for the assembled WindServe system."""

from __future__ import annotations

import pytest

from repro.core.config import WindServeConfig
from repro.core.windserve import WindServeSystem
from repro.hardware.topology import NodeTopology
from repro.models.parallelism import ParallelConfig
from repro.models.registry import get_model
from repro.serving.instance import InstanceConfig
from repro.serving.metrics import SLO
from repro.serving.placement import plan_pd_placement
from repro.serving.request import Request
from repro.workloads.datasets import SHAREGPT
from repro.workloads.trace import generate_trace
from repro.serving.system import SystemConfig


def make_system(
    ws_config: WindServeConfig | None = None,
    decode_tp: int = 2,
    kv_override: int | None = None,
    slo: SLO = SLO(ttft=0.25, tpot=0.1),
) -> WindServeSystem:
    topo = NodeTopology(num_gpus=4)
    model = get_model("opt-13b")
    decode_instance = (
        InstanceConfig(kv_capacity_override_tokens=kv_override) if kv_override else None
    )
    cfg = SystemConfig(model=model, slo=slo, decode_instance=decode_instance)
    placement = plan_pd_placement(topo, ParallelConfig(tp=2), ParallelConfig(tp=decode_tp))
    return WindServeSystem(cfg, ws_config=ws_config, placement=placement, topology=topo)


def request(rid, prompt=200, output=5, arrival=0.0) -> Request:
    return Request(rid, prompt_tokens=prompt, output_tokens=output, arrival_time=arrival)


class TestBasicLifecycle:
    def test_single_request_completes(self):
        system = make_system()
        r = request(1, prompt=500, output=10)
        system.submit(r)
        system.sim.run_until_idle()
        assert r.finished
        assert r.ttft > 0 and r.tpot > 0

    def test_trace_drains_completely(self):
        system = make_system()
        model = get_model("opt-13b")
        trace = generate_trace(SHAREGPT, rate=8.0, num_requests=120, seed=0, model=model)
        metrics = system.run_to_completion(trace)
        assert len(metrics.completed) == 120

    def test_kv_fully_released_after_drain(self):
        system = make_system()
        model = get_model("opt-13b")
        trace = generate_trace(SHAREGPT, rate=12.0, num_requests=150, seed=1, model=model)
        system.run_to_completion(trace)
        assert system.prefill_instance.kv.used_gpu_blocks == 0
        assert system.decode_instance.kv.used_gpu_blocks == 0
        assert not system.backups

    def test_assist_budget_derived_from_slo(self):
        system = make_system()
        assert system.assist_budget_tokens > 0


class TestDynamicPrefillDispatch:
    def test_idle_prefill_no_dispatch(self):
        system = make_system()
        system.submit(request(1, prompt=200, output=5))
        assert system.metrics.counters.get("dispatched_prefill", 0) == 0

    def test_overloaded_prefill_dispatches(self):
        system = make_system()
        # Saturate the prefill queue far beyond the TTFT threshold.
        for i in range(30):
            system.submit(request(i, prompt=1800, output=5))
        assert system.metrics.counters.get("dispatched_prefill", 0) >= 1

    def test_dispatch_disabled_by_config(self):
        system = make_system(ws_config=WindServeConfig(dispatch_enabled=False))
        for i in range(30):
            system.submit(request(i, prompt=1800, output=5))
        assert system.metrics.counters.get("dispatched_prefill", 0) == 0

    def test_dispatched_requests_skip_handoff_transfer(self):
        """A dispatched prefill writes KV directly into the decode instance."""
        system = make_system()
        for i in range(30):
            system.submit(request(i, prompt=1800, output=5))
        system.sim.run_until_idle()
        dispatched = [r for r in system.metrics.completed if r.dispatched_prefill]
        assert dispatched
        for r in dispatched:
            # No transfer gap: decoding starts the instant prefill ends.
            assert r.decode_start == r.first_token_time

    def test_dispatch_rejected_without_kv_slots(self):
        system = make_system(kv_override=1024)
        for i in range(30):
            system.submit(request(i, prompt=1800, output=5))
        assert system.metrics.counters.get("dispatch_rejected_no_slots", 0) >= 1

    def test_dispatch_improves_ttft_under_overload(self):
        model = get_model("opt-13b")
        trace = generate_trace(SHAREGPT, rate=18.0, num_requests=200, seed=3, model=model)

        with_dispatch = make_system()
        m1 = with_dispatch.run_to_completion(trace)

        trace2 = generate_trace(SHAREGPT, rate=18.0, num_requests=200, seed=3, model=model)
        without = make_system(
            ws_config=WindServeConfig(dispatch_enabled=False, rescheduling_enabled=False)
        )
        m2 = without.run_to_completion(trace2)
        assert m1.ttft_stats().p50 < m2.ttft_stats().p50


class TestAsyncHandoff:
    def test_async_transfer_used_by_default(self):
        system = make_system()
        system.submit(request(1, prompt=500, output=5))
        system.sim.run_until_idle()
        assert system.metrics.counters.get("async_handoff", 0) == 1

    def test_async_disabled_falls_back_to_blocking(self):
        system = make_system(ws_config=WindServeConfig(async_transfer=False))
        r = request(1, prompt=500, output=5)
        system.submit(r)
        system.sim.run_until_idle()
        assert system.metrics.counters.get("async_handoff", 0) == 0
        assert r.finished

    def test_async_handoff_faster_than_blocking(self):
        """Overlapped transfer gets requests into decode sooner (TPOT win)."""
        r1 = request(1, prompt=2000, output=20)
        s1 = make_system()
        s1.submit(r1)
        s1.sim.run_until_idle()

        r2 = request(1, prompt=2000, output=20)
        s2 = make_system(ws_config=WindServeConfig(async_transfer=False))
        s2.submit(r2)
        s2.sim.run_until_idle()
        assert r1.decode_start < r2.decode_start

    def test_async_slows_prefill_slightly(self):
        """The paper's LongBench observation: async transfer costs a bit of TTFT."""
        r1 = request(1, prompt=2000, output=20)
        s1 = make_system()
        s1.submit(r1)
        s1.sim.run_until_idle()

        r2 = request(1, prompt=2000, output=20)
        s2 = make_system(ws_config=WindServeConfig(async_transfer=False))
        s2.submit(r2)
        s2.sim.run_until_idle()
        assert r1.ttft > r2.ttft


class TestDynamicRescheduling:
    def test_memory_pressure_triggers_migration(self):
        system = make_system(decode_tp=1, kv_override=4096)
        model = get_model("opt-13b")
        trace = generate_trace(SHAREGPT, rate=10.0, num_requests=150, seed=5, model=model)
        system.run_to_completion(trace)
        assert system.metrics.counters.get("reschedule_completed", 0) >= 1

    def test_rescheduling_disabled_by_config(self):
        system = make_system(
            decode_tp=1,
            kv_override=4096,
            ws_config=WindServeConfig(rescheduling_enabled=False),
        )
        model = get_model("opt-13b")
        trace = generate_trace(SHAREGPT, rate=10.0, num_requests=150, seed=5, model=model)
        system.run_to_completion(trace)
        assert system.metrics.counters.get("reschedule_completed", 0) == 0

    def test_rescheduling_reduces_swapping(self):
        """Fig. 13b: Dynamic Rescheduling avoids KV swap I/O."""
        model = get_model("opt-13b")
        trace = generate_trace(SHAREGPT, rate=10.0, num_requests=150, seed=5, model=model)
        with_r = make_system(decode_tp=1, kv_override=4096)
        m1 = with_r.run_to_completion(trace)

        trace2 = generate_trace(SHAREGPT, rate=10.0, num_requests=150, seed=5, model=model)
        without = make_system(
            decode_tp=1, kv_override=4096, ws_config=WindServeConfig(rescheduling_enabled=False)
        )
        m2 = without.run_to_completion(trace2)
        assert m1.counters.get("swap_out", 0) < m2.counters.get("swap_out", 0)

    def test_migrated_requests_finish_on_prefill_instance(self):
        system = make_system(decode_tp=1, kv_override=4096)
        model = get_model("opt-13b")
        trace = generate_trace(SHAREGPT, rate=10.0, num_requests=150, seed=5, model=model)
        metrics = system.run_to_completion(trace)
        migrated = [r for r in metrics.completed if r.migration_count > 0]
        assert migrated
        assert all(r.finished for r in migrated)

    def test_migration_prefers_long_contexts(self):
        system = make_system(decode_tp=1, kv_override=4096)
        model = get_model("opt-13b")
        trace = generate_trace(SHAREGPT, rate=10.0, num_requests=200, seed=6, model=model)
        metrics = system.run_to_completion(trace)
        migrated = [r for r in metrics.completed if r.migration_count > 0]
        stayed = [r for r in metrics.completed if r.migration_count == 0]
        if migrated and stayed:
            avg_m = sum(r.context_tokens for r in migrated) / len(migrated)
            avg_s = sum(r.context_tokens for r in stayed) / len(stayed)
            assert avg_m > avg_s


class TestBackups:
    def test_backups_kept_under_decode_pressure(self):
        system = make_system(
            decode_tp=1,
            kv_override=4096,
            ws_config=WindServeConfig(backup_min_prompt_tokens=256),
        )
        model = get_model("opt-13b")
        trace = generate_trace(SHAREGPT, rate=10.0, num_requests=150, seed=7, model=model)
        system.run_to_completion(trace)
        assert system.metrics.counters.get("backup_kept", 0) >= 1

    def test_backups_disabled(self):
        system = make_system(
            decode_tp=1, kv_override=4096, ws_config=WindServeConfig(backup_enabled=False)
        )
        model = get_model("opt-13b")
        trace = generate_trace(SHAREGPT, rate=10.0, num_requests=100, seed=7, model=model)
        system.run_to_completion(trace)
        assert system.metrics.counters.get("backup_kept", 0) == 0

    def test_backup_freed_when_request_finishes(self):
        system = make_system(
            decode_tp=1,
            kv_override=4096,
            ws_config=WindServeConfig(backup_min_prompt_tokens=256),
        )
        model = get_model("opt-13b")
        trace = generate_trace(SHAREGPT, rate=8.0, num_requests=120, seed=8, model=model)
        system.run_to_completion(trace)
        assert not system.backups
        assert system.prefill_instance.kv.used_gpu_blocks == 0


class TestStreamBasedDisaggregation:
    def test_sbd_runs_assists_in_stream(self):
        system = make_system()
        for i in range(30):
            system.submit(request(i, prompt=1800, output=20))
        system.sim.run_until_idle()
        assert system.metrics.counters.get("assist_prefill", 0) >= 1

    def test_no_split_uses_hybrid_batches(self):
        system = make_system(ws_config=WindServeConfig(colocation_mode="hybrid"))
        for i in range(30):
            system.submit(request(i, prompt=1800, output=20))
        system.sim.run_until_idle()
        assert system.metrics.counters.get("assist_prefill", 0) == 0
        dispatched = [r for r in system.metrics.completed if r.dispatched_prefill]
        assert dispatched and all(r.finished for r in dispatched)

    def test_sbd_protects_tpot_versus_no_split(self):
        """Fig. 13a: without SBD, dispatch inflates co-located decode TPOT."""
        model = get_model("opt-13b")
        trace = generate_trace(SHAREGPT, rate=16.0, num_requests=200, seed=9, model=model)
        sbd = make_system()
        m1 = sbd.run_to_completion(trace)

        trace2 = generate_trace(SHAREGPT, rate=16.0, num_requests=200, seed=9, model=model)
        nosplit = make_system(ws_config=WindServeConfig(colocation_mode="hybrid"))
        m2 = nosplit.run_to_completion(trace2)
        assert m1.tpot_stats().p90 < m2.tpot_stats().p90
