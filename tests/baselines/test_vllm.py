"""Tests for the vLLM (colocated chunked-prefill) baseline."""

from __future__ import annotations

import pytest

from repro.baselines.vllm import VLLMSystem
from repro.hardware.topology import NodeTopology
from repro.models.parallelism import ParallelConfig
from repro.models.registry import get_model
from repro.serving.instance import InstanceConfig
from repro.serving.metrics import SLO
from repro.serving.request import Request
from repro.serving.system import SystemConfig
from repro.workloads.datasets import SHAREGPT
from repro.workloads.trace import generate_trace


def make_system(num_replicas=1, max_batched_tokens=512, kv_override=None) -> VLLMSystem:
    topo = NodeTopology(num_gpus=4)
    instance = InstanceConfig(
        max_batched_tokens=max_batched_tokens,
        kv_capacity_override_tokens=kv_override,
    )
    cfg = SystemConfig(
        model=get_model("opt-13b"), slo=SLO(ttft=0.25, tpot=0.1), instance=instance
    )
    return VLLMSystem(cfg, parallel=ParallelConfig(tp=2), num_replicas=num_replicas, topology=topo)


def request(rid, prompt=200, output=5, arrival=0.0) -> Request:
    return Request(rid, prompt_tokens=prompt, output_tokens=output, arrival_time=arrival)


class TestChunkedPrefill:
    def test_large_prompt_prefills_in_chunks(self):
        system = make_system(max_batched_tokens=512)
        r = request(1, prompt=2000, output=3)
        system.submit(r)
        system.sim.run(max_events=2)
        assert 0 < r.prefilled_tokens < r.prompt_tokens

    def test_prefill_completes_and_decodes_locally(self):
        system = make_system()
        r = request(1, prompt=2000, output=5)
        system.submit(r)
        system.sim.run_until_idle()
        assert r.finished
        # Colocated: decode starts the instant prefill ends (no transfer).
        assert r.decode_start == r.first_token_time

    def test_decode_tokens_take_budget_priority(self):
        """With a full decode batch, prefill chunks shrink."""
        system = make_system(max_batched_tokens=64)
        decode_hog = [request(i, prompt=50, output=200) for i in range(60)]
        for r in decode_hog:
            system.submit(r)
        system.sim.run(until=2.0)
        late = request(999, prompt=500, output=2)
        system.submit(late)
        system.sim.run(until=2.5)
        assert late.prefilled_tokens < late.prompt_tokens

    def test_decode_iterations_inflated_by_chunks(self):
        """Chunked prefill inflates co-scheduled decode steps (Fig. 8)."""
        quiet = make_system()
        r1 = request(1, prompt=100, output=50)
        quiet.submit(r1)
        quiet.sim.run_until_idle()
        quiet_tpot = r1.tpot

        busy = make_system()
        r2 = request(1, prompt=100, output=50)
        busy.submit(r2)
        for i in range(2, 40):
            busy.submit(request(i, prompt=1500, output=2, arrival=0.0))
        busy.sim.run_until_idle()
        assert r2.tpot > quiet_tpot


class TestReplicas:
    def test_replicas_split_gpus(self):
        system = make_system(num_replicas=2)
        assert len(system.replicas) == 2
        assert system.num_gpus == 4

    def test_least_loaded_routing(self):
        system = make_system(num_replicas=2)
        for i in range(10):
            system.submit(request(i, prompt=500, output=3))
        loads = [r.load() for r in system.replicas]
        assert abs(loads[0] - loads[1]) <= 1

    def test_all_complete_across_replicas(self):
        system = make_system(num_replicas=2)
        trace = generate_trace(SHAREGPT, rate=6.0, num_requests=80, seed=4,
                               model=get_model("opt-13b"))
        metrics = system.run_to_completion(trace)
        assert len(metrics.completed) == 80


class TestMemoryPressure:
    def test_preemption_swaps_under_pressure(self):
        system = make_system(kv_override=2048)
        for i in range(14):
            system.submit(request(i, prompt=300, output=250))
        system.sim.run(until=10.0)
        assert system.metrics.counters.get("swap_out", 0) >= 1

    def test_drains_cleanly_after_pressure(self):
        system = make_system(kv_override=3072)
        reqs = [request(i, prompt=300, output=60) for i in range(12)]
        for r in reqs:
            system.submit(r)
        system.sim.run_until_idle()
        assert all(r.finished for r in reqs)
        assert system.replicas[0].kv.used_gpu_blocks == 0


class TestStaleChunkMarker:
    """Regression: a crash-requeued request must not keep a stale
    ``chunk_in_flight`` marker, which made ``_form_batch`` skip it forever."""

    @staticmethod
    def _mid_prefill(replica, r, done=100):
        """Park ``r`` mid-prefill on ``replica`` with the marker still set,
        as a crash-requeue path that failed to clear it would leave it."""
        from repro.serving.request import Phase

        replica.kv.allocate(r.request_id, done)
        r.phase = Phase.PREFILLING
        r.prefilled_tokens = done
        r.chunk_in_flight = True
        replica.prefilling.append(r)

    def test_enqueue_clears_stale_marker(self):
        # Tiny KV: the request stays waiting, so nothing re-plans a chunk
        # and the marker's fate is observable.
        system = make_system(kv_override=64)
        replica = system.replicas[0]
        r = request(1, prompt=200, output=3)
        r.chunk_in_flight = True  # left over from a crashed replica
        replica.enqueue(r)
        assert r.chunk_in_flight is False
        assert r in replica.waiting

    def test_form_batch_unsticks_stale_marker(self):
        """With the marker set mid-prefill but no lane actually running a
        chunk, the chunking loop clears it and plans the request instead of
        starving it."""
        system = make_system()
        replica = system.replicas[0]
        r = request(1, prompt=400, output=3)
        self._mid_prefill(replica, r)
        assert not replica._chunk_actually_in_flight(r)
        batch = replica._form_batch(replica.lanes[0])
        assert batch is not None and r in batch.prefill_requests

    def test_genuinely_in_flight_chunk_still_skipped(self):
        """The fix only clears *stale* markers: while a lane's current batch
        really holds the request's chunk, no second chunk is co-planned."""
        system = make_system()
        replica = system.replicas[0]
        r = request(1, prompt=400, output=3)
        self._mid_prefill(replica, r)
        lane = replica.lanes[0]
        lane.current_batch = replica._form_batch(lane)
        assert replica._chunk_actually_in_flight(r)
        again = replica._form_batch(lane)
        assert again is None or r not in again.prefill_requests
        assert r.chunk_in_flight  # marker untouched


class TestAccounting:
    def test_single_token_output(self):
        system = make_system()
        r = request(1, prompt=100, output=1)
        system.submit(r)
        system.sim.run_until_idle()
        assert r.finished and r.tpot == 0.0

    def test_kv_tracks_prefill_progress(self):
        """KV reservation leads prefill progress by at most one chunk."""
        system = make_system(max_batched_tokens=256)
        r = request(1, prompt=1000, output=2)
        system.submit(r)
        system.sim.run(max_events=1)
        cached = system.replicas[0].kv.tokens_of(1)
        assert r.prefilled_tokens <= cached <= r.prefilled_tokens + 256
