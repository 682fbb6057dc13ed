"""Tests for the assist stream (stream-based disaggregation, §3.4)."""

from __future__ import annotations

import pytest

from repro.core.config import WindServeConfig
from repro.serving.request import Phase

from tests.core.test_windserve import make_system, request


def dispatch(system, r):
    """Route a request through the assist path directly."""
    system.decode_instance.kv.allocate(r.request_id, r.prompt_tokens + 1)
    system.decode_instance.assist.submit(r)


class TestAssistStream:
    def test_one_job_at_a_time(self):
        system = make_system()
        a, b = request(1, prompt=800, output=5), request(2, prompt=800, output=5)
        dispatch(system, a)
        dispatch(system, b)
        stream = system.decode_instance.assist
        assert stream.active is not None
        assert stream.active.request is a
        assert list(stream.queue) == [b]

    def test_each_assist_job_prices_its_prefill_once(self, monkeypatch):
        """The isolated pass SBD prices also feeds the batch accounting."""
        system = make_system()
        latency = system.decode_instance.latency
        priced = []
        original = latency.prefill

        def counting(num_tokens):
            priced.append(num_tokens)
            return original(num_tokens)

        monkeypatch.setattr(latency, "prefill", counting)
        dispatch(system, request(1, prompt=800, output=5))
        dispatch(system, request(2, prompt=600, output=5))
        assert priced == [800]
        system.sim.run_until_idle()
        assert priced == [800, 600]

    def test_in_flight_tokens_counts_queue_and_active(self):
        system = make_system()
        dispatch(system, request(1, prompt=800, output=5))
        dispatch(system, request(2, prompt=600, output=5))
        assert system.decode_instance.assist.in_flight_tokens() == 1400

    def test_completion_emits_first_token_and_starts_decode(self):
        system = make_system()
        r = request(1, prompt=800, output=5)
        dispatch(system, r)
        system.sim.run_until_idle()
        assert r.finished
        assert r.dispatched_prefill
        assert r.first_token_time is not None
        assert r.decode_start == r.first_token_time  # no hand-off transfer

    def test_single_token_dispatched_request_retires_at_prefill(self):
        system = make_system()
        r = request(1, prompt=800, output=1)
        dispatch(system, r)
        system.sim.run_until_idle()
        assert r.finished
        assert system.decode_instance.kv.used_gpu_blocks == 0

    def test_queue_drains_in_fcfs_order(self):
        system = make_system()
        reqs = [request(i, prompt=500, output=3) for i in range(4)]
        for r in reqs:
            dispatch(system, r)
        system.sim.run_until_idle()
        firsts = [r.first_token_time for r in reqs]
        assert firsts == sorted(firsts)

    def test_assist_prefill_slower_when_decodes_running(self):
        """SBD inflates the assist prefill when decode jobs co-run."""
        idle = make_system()
        r1 = request(1, prompt=1500, output=2)
        dispatch(idle, r1)
        idle.sim.run_until_idle()
        idle_ttft = r1.ttft

        busy = make_system()
        # Fill decode lanes first.
        for i in range(10, 40):
            busy.submit(request(i, prompt=100, output=400))
        busy.sim.run(until=1.0)
        r2 = request(1, prompt=1500, output=2, arrival=busy.sim.now)
        dispatch(busy, r2)
        busy.sim.run_until_idle()
        assert r2.ttft > idle_ttft

    def test_decode_iterations_slowed_while_assist_active(self):
        system = make_system()
        # Establish a decode batch.
        for i in range(20, 30):
            system.submit(request(i, prompt=100, output=300))
        system.sim.run(until=1.0)
        decode = system.decode_instance
        b, ctx = decode.current_decode_load()
        iso = decode.latency.decode(b, ctx).duration
        dispatch(system, request(1, prompt=1800, output=2))
        lane = decode.lanes[0]
        lane.busy = False  # force re-form
        batch = decode._form_batch(lane)
        assert batch.kind == "sbd"
        assert batch.duration > iso

    def test_phase_transitions(self):
        system = make_system()
        r = request(1, prompt=800, output=5)
        dispatch(system, r)
        assert r.phase == Phase.PREFILLING
        system.sim.run_until_idle()
        assert r.phase == Phase.FINISHED
