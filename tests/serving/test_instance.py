"""Tests for the generic instance machinery (lanes, KV growth, swapping)."""

from __future__ import annotations

from typing import Optional

import pytest

from repro.hardware.gpu import A800_80GB
from repro.hardware.topology import NodeTopology
from repro.kvcache.transfer import KVTransferEngine
from repro.models.parallelism import ParallelConfig
from repro.models.registry import OPT_13B
from repro.serving.batching import Batch
from repro.serving.instance import MAX_DECODE_BATCH_SIZE, Instance, InstanceConfig, Lane
from repro.serving.metrics import MetricsCollector
from repro.serving.request import Phase, Request
from repro.sim.engine import Simulator


class DecodeOnlyInstance(Instance):
    """Minimal concrete instance: pure continuous-batching decode (whose
    plain iterations fold into decode runs)."""

    def _form_batch(self, lane: Lane) -> Optional[Batch]:
        while self.waiting and lane.batch_size < MAX_DECODE_BATCH_SIZE:
            request = self.waiting.popleft()
            if request.decode_start is None:
                request.decode_start = self.sim.now
            self.start_decoding(request, lane)
        if not lane.running:
            return None
        kind, duration, timing = self._decode_pass(lane)
        return Batch(kind, duration, decode_requests=list(lane.running), timing=timing)

    def _on_batch_complete(self, lane: Lane, batch: Batch) -> None:
        self.finish_decode_iteration(lane, batch)


def make_instance(
    kv_tokens: int = 100_000,
    parallel: ParallelConfig = ParallelConfig(tp=2),
    cpu_swap_gb: float = 64.0,
) -> tuple[DecodeOnlyInstance, Simulator]:
    sim = Simulator()
    topo = NodeTopology(num_gpus=4)
    inst = DecodeOnlyInstance(
        "decode",
        sim,
        OPT_13B,
        A800_80GB,
        parallel,
        tuple(range(parallel.num_gpus)),
        MetricsCollector(),
        KVTransferEngine(sim, topo),
        InstanceConfig(kv_capacity_override_tokens=kv_tokens, cpu_swap_gb=cpu_swap_gb),
    )
    return inst, sim


def decode_ready_request(rid: int, prompt: int = 100, output: int = 5) -> Request:
    """A request that already completed prefill elsewhere."""
    r = Request(rid, prompt_tokens=prompt, output_tokens=output, arrival_time=0.0)
    r.prefilled_tokens = prompt
    r.output_generated = 1
    r.first_token_time = 0.0
    r.phase = Phase.WAITING_DECODE
    return r


class TestConstruction:
    def test_gpu_count_must_match_parallelism(self):
        sim = Simulator()
        topo = NodeTopology(num_gpus=4)
        with pytest.raises(ValueError, match="placement has"):
            DecodeOnlyInstance(
                "bad",
                sim,
                OPT_13B,
                A800_80GB,
                ParallelConfig(tp=2),
                (0,),
                MetricsCollector(),
                KVTransferEngine(sim, topo),
                InstanceConfig(),
            )

    def test_kv_capacity_from_hbm_budget(self):
        inst, _ = make_instance(kv_tokens=None or 0)  # force computed path below
        sim = Simulator()
        topo = NodeTopology(num_gpus=4)
        computed = DecodeOnlyInstance(
            "d",
            sim,
            OPT_13B,
            A800_80GB,
            ParallelConfig(tp=2),
            (0, 1),
            MetricsCollector(),
            KVTransferEngine(sim, topo),
            InstanceConfig(),
        )
        # 2 GPUs x (80 GB - ~13 GB weights - 8 GB reserve) / 0.78 MB per token
        tokens = computed.kv.gpu_capacity_blocks * computed.kv.block_size
        assert 120_000 <= tokens <= 180_000

    def test_model_too_big_raises(self):
        sim = Simulator()
        topo = NodeTopology(num_gpus=4)
        from repro.models.registry import OPT_66B

        with pytest.raises(ValueError, match="do not fit"):
            DecodeOnlyInstance(
                "d",
                sim,
                OPT_66B,
                A800_80GB,
                ParallelConfig(tp=1),
                (0,),
                MetricsCollector(),
                KVTransferEngine(sim, topo),
                InstanceConfig(),
            )

    def test_lanes_match_pp(self):
        inst, _ = make_instance(parallel=ParallelConfig(tp=2, pp=2))
        assert len(inst.lanes) == 2


class TestDecodeLoop:
    def test_single_request_completes(self):
        inst, sim = make_instance()
        r = decode_ready_request(1, prompt=100, output=5)
        inst.kv.allocate(1, r.context_tokens)
        inst.enqueue(r)
        sim.run()
        assert r.finished
        assert r.finish_time > 0
        assert inst.metrics.completed == [r]

    def test_kv_freed_on_completion(self):
        inst, sim = make_instance()
        r = decode_ready_request(1)
        inst.kv.allocate(1, r.context_tokens)
        inst.enqueue(r)
        sim.run()
        assert not inst.kv.has(1)
        assert inst.kv.used_gpu_blocks == 0

    def test_kv_grows_one_token_per_iteration(self):
        inst, sim = make_instance()
        r = decode_ready_request(1, prompt=100, output=16)
        inst.kv.allocate(1, r.context_tokens)
        inst.enqueue(r)
        sim.run(max_events=1)  # one decode iteration completes
        assert inst.kv.tokens_of(1) == 102

    def test_continuous_batching_joins_midstream(self):
        inst, sim = make_instance()
        a = decode_ready_request(1, output=50)
        inst.kv.allocate(1, a.context_tokens)
        inst.enqueue(a)
        b = decode_ready_request(2, output=5)
        inst.kv.allocate(2, b.context_tokens)
        sim.schedule(0.01, inst.enqueue, b)
        sim.run()
        assert a.finished and b.finished
        assert b.finish_time < a.finish_time

    def test_pp2_lanes_run_concurrently(self):
        inst, sim = make_instance(parallel=ParallelConfig(tp=2, pp=2))
        for i in range(4):
            r = decode_ready_request(i, output=20)
            inst.kv.allocate(i, r.context_tokens)
            inst.enqueue(r)
        sim.run(max_events=4)
        assert all(lane.batch_size > 0 for lane in inst.lanes)

    def test_decode_start_recorded_once(self):
        inst, sim = make_instance()
        r = decode_ready_request(1, output=5)
        inst.kv.allocate(1, r.context_tokens)
        inst.enqueue(r)
        sim.run()
        assert r.decode_start == 0.0


class TestSwapping:
    def test_kv_exhaustion_triggers_swap(self):
        inst, sim = make_instance(kv_tokens=256)
        for i in range(2):
            r = decode_ready_request(i, prompt=110, output=200)
            inst.kv.allocate(i, r.context_tokens)
            inst.enqueue(r)
        sim.run(until=5.0)
        assert inst.metrics.counters["swap_out"] >= 1

    def test_swap_victim_is_latest_arrival(self):
        inst, sim = make_instance(kv_tokens=256)
        early = decode_ready_request(1, prompt=110, output=400)
        late = decode_ready_request(2, prompt=110, output=400)
        late.arrival_time = 1.0
        inst.kv.allocate(1, early.context_tokens)
        inst.kv.allocate(2, late.context_tokens)
        inst.enqueue(early)
        inst.enqueue(late)
        sim.run(until=2.0)
        assert late.swap_out_count >= 1

    def test_swapped_request_eventually_finishes(self):
        inst, sim = make_instance(kv_tokens=288)
        requests = []
        for i in range(2):
            r = decode_ready_request(i, prompt=110, output=60)
            requests.append(r)
            inst.kv.allocate(i, r.context_tokens)
            inst.enqueue(r)
        sim.run_until_idle()
        assert all(r.finished for r in requests)
        assert inst.metrics.counters.get("swap_in", 0) >= 1

    def test_swap_accounting_balanced(self):
        inst, sim = make_instance(kv_tokens=288)
        for i in range(3):
            r = decode_ready_request(i, prompt=80, output=60)
            inst.kv.allocate(i, r.context_tokens)
            inst.enqueue(r)
        sim.run_until_idle()
        assert inst.kv.used_gpu_blocks == 0
