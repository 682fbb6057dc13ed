"""Unit tests for the WindServe decode instance's batch formation."""

from __future__ import annotations

import pytest

from repro.core.config import WindServeConfig
from repro.serving.request import Phase

from tests.core.test_windserve import make_system, request


def decode_ready(system, rid, prompt=200, output=50):
    r = request(rid, prompt=prompt, output=output)
    r.prefilled_tokens = prompt
    r.output_generated = 1
    r.first_token_time = 0.0
    system.decode_instance.kv.allocate(rid, r.context_tokens)
    return r


class TestAdmission:
    def test_waiting_requests_admitted_to_lane(self):
        system = make_system()
        decode = system.decode_instance
        for i in range(3):
            decode.waiting.append(decode_ready(system, i))
        batch = decode._form_batch(decode.lanes[0])
        assert batch.kind == "decode"
        assert batch.decode_batch_size == 3

    def test_batch_size_cap(self, monkeypatch):
        from repro.core import instances
        from repro.core.windserve import WindServeSystem
        from repro.hardware.topology import NodeTopology
        from repro.models.registry import get_model
        from repro.serving.metrics import SLO
        from repro.serving.system import SystemConfig

        monkeypatch.setattr(instances, "MAX_DECODE_BATCH_SIZE", 2)
        cfg = SystemConfig(model=get_model("opt-13b"), slo=SLO(0.25, 0.1))
        system = WindServeSystem(cfg, topology=NodeTopology(num_gpus=4))
        decode = system.decode_instance
        for i in range(5):
            decode.waiting.append(decode_ready(system, i))
        batch = decode._form_batch(decode.lanes[0])
        assert batch.decode_batch_size == 2
        assert len(decode.waiting) == 3

    def test_idle_lane_with_nothing_returns_none(self):
        system = make_system()
        assert system.decode_instance._form_batch(system.decode_instance.lanes[0]) is None

    def test_decode_start_stamped_on_admission(self):
        system = make_system()
        decode = system.decode_instance
        r = decode_ready(system, 1)
        decode.waiting.append(r)
        decode._form_batch(decode.lanes[0])
        assert r.decode_start == system.sim.now


class TestSBDKinds:
    def test_plain_decode_without_assist(self):
        system = make_system()
        decode = system.decode_instance
        decode.waiting.append(decode_ready(system, 1))
        assert decode._form_batch(decode.lanes[0]).kind == "decode"

    def test_sbd_kind_with_active_assist(self):
        system = make_system()
        decode = system.decode_instance
        decode.waiting.append(decode_ready(system, 1))
        assist = request(99, prompt=1000, output=2)
        decode.kv.allocate(99, 1001)
        decode.assist.submit(assist)
        lane = decode.lanes[0]
        lane.busy = False
        batch = decode._form_batch(lane)
        assert batch.kind == "sbd"

    def test_hybrid_kind_in_no_split_mode(self):
        system = make_system(ws_config=WindServeConfig(colocation_mode="hybrid"))
        decode = system.decode_instance
        decode.waiting.append(decode_ready(system, 1))
        assist = request(99, prompt=1000, output=2)
        decode.kv.allocate(99, 1001)
        decode.assist.queue.append(assist)
        batch = decode._form_batch(decode.lanes[0])
        assert batch.kind == "hybrid"
        assert batch.prefill_requests == [assist]

    def test_current_decode_load(self):
        system = make_system()
        decode = system.decode_instance
        for i in range(2):
            r = decode_ready(system, i, prompt=100)
            decode.start_decoding(r)
        batch_size, sum_ctx = decode.current_decode_load()
        assert batch_size == 2
        assert sum_ctx == 2 * 101


class TestRescheduleTriggering:
    def test_batch_completion_triggers_reschedule_check(self):
        system = make_system(decode_tp=1, kv_override=2048)
        decode = system.decode_instance
        # Fill the pool so the watermark trips on the next completion.
        reqs = [decode_ready(system, i, prompt=300, output=50) for i in range(6)]
        for r in reqs:
            decode.start_decoding(r)
        filler = decode.kv.free_gpu_tokens
        if filler > 0:
            decode.kv.allocate(999, filler)
        from repro.serving.batching import Batch

        batch = Batch("decode", 0.01, decode_requests=list(decode.running_requests))
        decode._on_batch_complete(decode.lanes[0], batch)
        assert system.metrics.counters.get("reschedule_started", 0) >= 1
