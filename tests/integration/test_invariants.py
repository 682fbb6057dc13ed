"""Property-style invariant sweeps: every system, randomised operating
points, audited end-to-end."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.harness.cell import Cell
from repro.harness.runner import generate_workload
from repro.harness.invariants import check_run
from repro.serving.audit import audit_request
from repro.serving.request import Request

SYSTEMS = (
    "windserve",
    "windserve-no-split",
    "windserve-no-resche",
    "distserve",
    "vllm",
)


def run_audited(system: str, rate: float, seed: int, decode_parallel=(2, 1), n=80):
    cell = Cell(
        system=system,
        rate_per_gpu=rate,
        num_requests=n,
        seed=seed,
        decode_parallel=decode_parallel,
    )
    built = cell.build()
    trace = generate_workload(cell)
    built.run_to_completion(trace)
    return built, list(trace)


@pytest.mark.parametrize("system", SYSTEMS)
def test_systems_pass_audit_at_moderate_load(system):
    built, submitted = run_audited(system, rate=3.0, seed=11)
    assert check_run(built, submitted) == []


@pytest.mark.parametrize("system", ("windserve", "distserve"))
def test_systems_pass_audit_under_memory_pressure(system):
    built, submitted = run_audited(system, rate=3.5, seed=13, decode_parallel=(1, 1), n=150)
    assert check_run(built, submitted) == []


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    system=st.sampled_from(SYSTEMS),
    rate=st.floats(0.5, 6.0),
    seed=st.integers(0, 10_000),
)
def test_property_random_operating_points_stay_consistent(system, rate, seed):
    built, submitted = run_audited(system, rate=rate, seed=seed, n=50)
    violations = check_run(built, submitted)
    assert violations == [], violations


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    system=st.sampled_from(("windserve", "distserve")),
    rate=st.floats(2.0, 4.0),
    seed=st.integers(0, 10_000),
    decode_tp=st.sampled_from(((1, 1), (2, 1))),
)
def test_property_pressure_and_skew_stay_consistent(system, rate, seed, decode_tp):
    """Decode-bound placements (swap + migration churn) also audit clean."""
    built, submitted = run_audited(
        system, rate=rate, seed=seed, decode_parallel=decode_tp, n=60
    )
    violations = check_run(built, submitted)
    assert violations == [], violations


class TestAuditCatchesBugs:
    """The auditor itself must detect broken states."""

    def make_finished(self) -> Request:
        r = Request(1, prompt_tokens=10, output_tokens=5, arrival_time=1.0)
        r.prefilled_tokens = 10
        r.output_generated = 5
        r.prefill_start = 1.5
        r.first_token_time = 2.0
        r.finish_time = 3.0
        from repro.serving.request import Phase

        r.phase = Phase.FINISHED
        return r

    def test_clean_request_passes(self):
        assert audit_request(self.make_finished()) == []

    def test_unfinished_flagged(self):
        r = Request(1, prompt_tokens=10, output_tokens=5, arrival_time=1.0)
        assert any("not finished" in p for p in audit_request(r))

    def test_token_undercount_flagged(self):
        r = self.make_finished()
        r.output_generated = 3
        assert any("generated 3 of 5" in p for p in audit_request(r))

    def test_time_travel_flagged(self):
        r = self.make_finished()
        r.finish_time = 0.5
        assert any("before" in p for p in audit_request(r))

    def test_kv_leak_flagged(self):
        built, submitted = run_audited("distserve", rate=1.0, seed=1, n=10)
        built.decode_instance.kv.allocate(9999, 100)
        assert any("leaked" in p for p in check_run(built, submitted))
