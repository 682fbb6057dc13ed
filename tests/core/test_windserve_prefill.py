"""Unit tests for the WindServe prefill instance's batch formation."""

from __future__ import annotations

import pytest

from repro.core.config import ASYNC_PREFILL_SLOWDOWN, WindServeConfig
from repro.serving.request import Phase

from tests.core.test_windserve import make_system, request


class TestPureMode:
    def test_batches_whole_prompts(self):
        system = make_system()
        prefill = system.prefill_instance
        for i in range(3):
            prefill.waiting.append(request(i, prompt=600, output=5))
        lane = prefill.lanes[0]
        batch = prefill._form_batch(lane)
        assert batch.kind == "prefill"
        assert batch.prefill_tokens == 1800  # all three fit the 8192 budget
        assert len(batch.prefill_requests) == 3

    def test_token_budget_respected(self):
        from dataclasses import replace
        from repro.serving.instance import InstanceConfig
        from repro.serving.system import SystemConfig
        from repro.models.registry import get_model
        from repro.core.windserve import WindServeSystem
        from repro.hardware.topology import NodeTopology
        from repro.serving.metrics import SLO

        cfg = SystemConfig(
            model=get_model("opt-13b"),
            slo=SLO(0.25, 0.1),
            instance=InstanceConfig(max_prefill_tokens_per_batch=1000),
        )
        system = WindServeSystem(cfg, topology=NodeTopology(num_gpus=4))
        prefill = system.prefill_instance
        for i in range(3):
            prefill.waiting.append(request(i, prompt=600, output=5))
        batch = prefill._form_batch(prefill.lanes[0])
        # The unified chunked machinery fills the budget exactly: the first
        # prompt in full plus a partial 400-token chunk of the second.
        assert batch.prefill_tokens == 1000
        assert batch.prefill_requests[1].prefilled_tokens == 0
        assert batch.meta["plan"][1][1] == 400

    def test_async_transfer_reserves_decode_kv_at_batch_start(self):
        system = make_system()
        prefill = system.prefill_instance
        prefill.waiting.append(request(1, prompt=600, output=5))
        prefill._form_batch(prefill.lanes[0])
        assert system.decode_instance.kv.has(1)
        assert system.metrics.counters.get("async_handoff", 0) == 1

    def test_async_slowdown_applied(self):
        on = make_system()
        off = make_system(ws_config=WindServeConfig(async_transfer=False))
        durations = {}
        for label, system in (("on", on), ("off", off)):
            p = system.prefill_instance
            p.waiting.append(request(1, prompt=600, output=5))
            durations[label] = p._form_batch(p.lanes[0]).duration
        assert durations["on"] == pytest.approx(
            durations["off"] * ASYNC_PREFILL_SLOWDOWN
        )


class TestChunkedMode:
    def resident_decode(self, system, rid=50, ctx=400):
        """Plant a (migrated-style) decode request on the prefill instance."""
        r = request(rid, prompt=ctx, output=50)
        r.prefilled_tokens = ctx
        r.output_generated = 1
        system.prefill_instance.kv.allocate(rid, r.context_tokens)
        system.prefill_instance.start_decoding(r, system.prefill_instance.lanes[0])
        return r

    def test_resident_decodes_switch_to_chunked(self):
        system = make_system()
        prefill = system.prefill_instance
        self.resident_decode(system)
        prefill.waiting.append(request(1, prompt=2000, output=5))
        batch = prefill._form_batch(prefill.lanes[0])
        assert batch.kind == "hybrid"
        # Chunk budget (512) minus the decode token.
        assert batch.prefill_tokens <= prefill.config.max_batched_tokens

    def test_decode_only_batch_when_no_prefill_waiting(self):
        system = make_system()
        prefill = system.prefill_instance
        self.resident_decode(system)
        batch = prefill._form_batch(prefill.lanes[0])
        assert batch.kind == "decode"
        assert batch.decode_batch_size == 1

    def test_chunked_prefill_progresses_to_handoff(self):
        system = make_system()
        prefill = system.prefill_instance
        self.resident_decode(system)
        r = request(1, prompt=1200, output=5)
        prefill.enqueue(r)
        system.sim.run_until_idle()
        assert r.finished
        assert r.recompute_count == 0


class TestBackupEviction:
    def test_eviction_frees_space_for_new_prompts(self):
        from repro.serving.instance import InstanceConfig
        from repro.serving.system import SystemConfig
        from repro.models.registry import get_model
        from repro.core.windserve import WindServeSystem
        from repro.hardware.topology import NodeTopology
        from repro.serving.metrics import SLO

        cfg = SystemConfig(
            model=get_model("opt-13b"),
            slo=SLO(0.25, 0.1),
            instance=InstanceConfig(kv_capacity_override_tokens=2048),
        )
        system = WindServeSystem(cfg, topology=NodeTopology(num_gpus=4))
        prefill = system.prefill_instance
        # Simulate a retained backup hogging the prefill pool.
        prefill.kv.allocate(99, 1600)
        system.backups[99] = 1600
        prefill.waiting.append(request(1, prompt=1000, output=5))
        batch = prefill._form_batch(prefill.lanes[0])
        assert batch is not None
        assert system.metrics.counters.get("backup_evicted", 0) == 1
        assert 99 not in system.backups
