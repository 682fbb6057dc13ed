"""Tests for the Coordinator's Algorithm 1 decisions."""

from __future__ import annotations

import pytest

from repro.core.config import WindServeConfig
from repro.core.coordinator import Route
from repro.serving.request import Request

from tests.core.test_windserve import make_system, request


class TestRouting:
    def test_idle_system_routes_to_prefill(self):
        system = make_system()
        r = request(1, prompt=200)
        assert system.coordinator.route_new_request(r) is Route.PREFILL

    def test_overloaded_queue_routes_to_assist(self):
        system = make_system()
        for i in range(25):
            system.prefill_instance.enqueue(request(i, prompt=1800, output=5))
        r = request(99, prompt=500)
        assert system.coordinator.route_new_request(r) is Route.ASSIST

    def test_threshold_scales_with_slo(self):
        """A generous TTFT SLO means dispatch triggers later."""
        from repro.serving.metrics import SLO

        tight = make_system(slo=SLO(ttft=0.05, tpot=0.1))
        loose = make_system(slo=SLO(ttft=60.0, tpot=0.1))
        for sysm in (tight, loose):
            for i in range(6):
                sysm.prefill_instance.enqueue(request(i, prompt=1500, output=5))
        probe = request(99, prompt=500)
        assert tight.coordinator.route_new_request(probe) is Route.ASSIST
        assert loose.coordinator.route_new_request(probe) is Route.PREFILL

    def test_disabled_dispatch_never_assists(self):
        system = make_system(ws_config=WindServeConfig(dispatch_enabled=False))
        for i in range(25):
            system.prefill_instance.enqueue(request(i, prompt=1800, output=5))
        assert system.coordinator.route_new_request(request(99, prompt=500)) is Route.PREFILL


class TestAvailableSlots:
    def test_slots_bounded_by_budget(self):
        system = make_system()
        system.assist_budget_tokens = 1000
        assert system.coordinator.available_slots() <= 1000

    def test_in_flight_assists_consume_budget(self):
        system = make_system()
        system.assist_budget_tokens = 1000
        before = system.coordinator.available_slots()
        r = request(1, prompt=600, output=5)
        system.decode_instance.kv.allocate(1, 601)
        system.decode_instance.assist.submit(r)
        assert system.coordinator.available_slots() == before - 600

    def test_kv_scarcity_zeroes_slots(self):
        """Paper: 'if the KV blocks ... are inadequate, the available slot
        is set to 0'."""
        system = make_system(kv_override=512)  # tiny decode pool
        # Headroom (128 blocks) exceeds the whole pool -> no slots.
        assert system.coordinator.available_slots() == 0

    def test_slots_never_negative(self):
        system = make_system()
        system.assist_budget_tokens = 100
        r = request(1, prompt=600, output=5)
        system.decode_instance.kv.allocate(1, 601)
        system.decode_instance.assist.submit(r)
        assert system.coordinator.available_slots() == 0


class TestTTFTPrediction:
    def test_prediction_grows_with_queue(self):
        system = make_system()
        probe = Request(99, prompt_tokens=500, output_tokens=5, arrival_time=0.0)
        empty = system.coordinator.predict_ttft(probe)
        for i in range(10):
            system.prefill_instance.waiting.append(request(i, prompt=1000))
        loaded = system.coordinator.predict_ttft(probe)
        assert loaded > empty

    def test_prediction_includes_inflight_batch(self):
        system = make_system()
        probe = Request(99, prompt_tokens=500, output_tokens=5, arrival_time=0.0)
        idle = system.coordinator.predict_ttft(probe)
        system.prefill_instance.enqueue(request(1, prompt=2000, output=2))
        busy = system.coordinator.predict_ttft(probe)
        assert busy > idle
