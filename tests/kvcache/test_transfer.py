"""Tests for the KV transfer engine."""

from __future__ import annotations

import pytest

from repro.hardware.gpu import GB
from repro.hardware.topology import NodeTopology
from repro.faults.links import LinkFaultModel
from repro.kvcache.transfer import KVTransferEngine, RetryPolicy
from repro.sim.engine import Simulator


@pytest.fixture
def engine():
    return KVTransferEngine(Simulator(), NodeTopology())


class TestTransfer:
    def test_completion_callback_fires_at_finish(self, engine):
        done = []
        job = engine.transfer(GB, [0], [2], on_complete=lambda j: done.append(engine.sim.now))
        engine.sim.run()
        assert done == [pytest.approx(job.finish)]

    def test_job_recorded_after_completion(self, engine):
        engine.transfer(1000, [0], [2])
        engine.sim.run()
        assert engine.bytes_by_kind == {"kv": 1000}
        assert engine.bytes_moved == 1000

    def test_callback_free_job_schedules_no_event(self, engine):
        before = engine.sim.pending_events
        job = engine.transfer(1000, [0], [2], kind="kv-async")
        engine.swap(500, [0], kind="swap-out")
        assert engine.sim.pending_events == before
        assert job.finish > engine.sim.now
        assert engine.bytes_by_kind == {"kv-async": 1000, "swap-out": 500}
        assert engine.bytes_moved == 1500

    def test_callback_job_keeps_its_event(self, engine):
        before = engine.sim.pending_events
        done = []
        job = engine.transfer(1000, [0], [2], on_complete=done.append, kind="kv-handoff")
        assert engine.sim.pending_events == before + 1
        assert engine.bytes_by_kind == {"kv-handoff": 1000}
        engine.sim.run()
        assert done == [job]
        assert engine.sim.now == job.finish

    def test_zero_bytes_is_instant_plus_latency(self, engine):
        job = engine.transfer(0, [0], [2])
        assert job.duration < 1e-3

    def test_negative_bytes_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.transfer(-1, [0], [2])

    def test_multi_gpu_pairs_split_bytes(self, engine):
        """A 2-GPU to 2-GPU copy splits across pairs; over NVLink-disjoint
        paths it beats a single-pair copy of the same total."""
        pairwise = engine.transfer(2 * GB, [0, 2], [1, 3])  # both legs NVLink
        single = engine.transfer(2 * GB, [4], [5])
        assert pairwise.duration <= single.duration + 1e-9

    def test_transfers_on_shared_link_serialize(self, engine):
        a = engine.transfer(GB, [0], [2])
        b = engine.transfer(GB, [1], [3])
        assert b.start >= a.finish - 1e-12

    def test_estimate_matches_unqueued_duration(self, engine):
        est = engine.estimate_duration(GB, [0], [2])
        job = engine.transfer(GB, [0], [2])
        assert job.duration == pytest.approx(est)

    def test_empty_instance_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.transfer(1, [], [0])


class TestSwap:
    def test_swap_uses_host_path(self, engine):
        job = engine.swap(GB, [0])
        assert job.kind == "swap"
        assert job.dst_gpus == ("host",)

    def test_swap_contends_with_transfers(self, engine):
        sw = engine.swap(GB, [0])
        kv = engine.transfer(GB, [1], [2])
        assert kv.start >= sw.finish - 1e-12

    def test_swap_requires_gpus(self, engine):
        with pytest.raises(ValueError):
            engine.swap(1, [])

    def test_swap_negative_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.swap(-5, [0])

    def test_swap_callback(self, engine):
        done = []
        engine.swap(1000, [0], on_complete=lambda j: done.append(j.nbytes))
        engine.sim.run()
        assert done == [1000]


class TestPermanentFailure:
    def test_failed_job_counts_in_neither_total(self, engine):
        engine.fault_model = LinkFaultModel()
        for link in engine.topology.path(0, 2).links:
            engine.fault_model.add_outage(link.name, 0.0, 10.0)
        engine.retry = RetryPolicy(max_retries=1)
        engine.failure_kinds = frozenset({"kv-handoff"})
        failed = []
        engine.on_failure = failed.append
        job = engine.transfer(1000, [0], [2], kind="kv-handoff")
        engine.sim.run()
        assert failed == [job] and engine.failed == [job]
        assert engine.bytes_moved == 0
        assert engine.bytes_by_kind == {}


class TestJobMetadata:
    def test_meta_passthrough(self, engine):
        job = engine.transfer(1, [0], [1], kind="kv-handoff", request_id=9)
        assert job.kind == "kv-handoff"
        assert job.meta == {"request_id": 9}

    def test_job_ids_unique(self, engine):
        a = engine.transfer(1, [0], [1])
        b = engine.transfer(1, [0], [1])
        assert a.job_id != b.job_id
