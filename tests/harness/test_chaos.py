"""Tests for the chaos comparison: invariants, conservation, reproducibility."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.faults.plan import FAULT_PLAN_NAMES
from repro.harness.cell import Cell
from repro.harness.experiments import CHAOS, completion_curve
from repro.harness.invariants import check_conservation
from repro.serving.request import Phase, Request


def _req(rid, phase=Phase.FINISHED):
    r = Request(request_id=rid, prompt_tokens=10, output_tokens=2, arrival_time=0.0)
    r.phase = phase
    return r


class TestConservationChecker:
    def test_clean_accounting_passes(self):
        submitted = [_req(i) for i in range(3)]
        done = [_req(0), _req(1)]
        shed = [_req(2, Phase.SHED)]
        assert check_conservation(submitted, done, shed) == []

    def test_detects_silent_drop(self):
        submitted = [_req(i) for i in range(3)]
        problems = check_conservation(submitted, [_req(0)], [_req(1, Phase.SHED)])
        assert any("dropped" in p for p in problems)

    def test_detects_duplicate_completion(self):
        submitted = [_req(0), _req(1)]
        problems = check_conservation(submitted, [_req(0), _req(0), _req(1)], [])
        assert problems

    def test_detects_overlap(self):
        submitted = [_req(0), _req(1)]
        problems = check_conservation(submitted, [_req(0), _req(1)], [_req(1, Phase.SHED)])
        assert problems

    def test_detects_phantom(self):
        problems = check_conservation([_req(0)], [_req(0), _req(7)], [])
        assert problems

    def test_shed_requests_must_be_marked(self):
        submitted = [_req(0), _req(1)]
        problems = check_conservation(submitted, [_req(0)], [_req(1, Phase.WAITING_PREFILL)])
        assert any("phase" in p for p in problems)


class TestCompletionCurve:
    def test_cumulative_counts(self):
        done = []
        for i, t in enumerate([0.5, 1.5, 1.6, 9.0]):
            r = _req(i)
            r.finish_time = t
            done.append(r)
        curve = completion_curve(done, horizon=10.0, bins=5)
        # Sample points at 2, 4, 6, 8, 10 seconds.
        assert [c for _, c in curve] == [3, 3, 3, 3, 4]
        assert curve[-1][0] == pytest.approx(10.0)

    def test_empty(self):
        assert completion_curve([], horizon=10.0) == []


CHAOS_KW = dict(num_requests=40, rate_per_gpu=3.0, seed=7)


def run_chaos(**kw):
    return Cell(**{**CHAOS_KW, **kw}).run()


def chaos_report(plans, **kw):
    return CHAOS.run(Cell(**{**CHAOS_KW, **kw}), systems=["windserve"], plans=plans)


class TestRunChaos:
    def test_decode_crash_zero_silent_drops(self):
        result = run_chaos(fault_plan="decode-crash")
        assert result.passed, result.violations
        assert len(result.submitted) == 40
        assert len(result.metrics.completed) + len(result.metrics.shed) == 40
        assert result.metrics.resilience_summary()["instance_crashes"] >= 1

    def test_invariants_hold_for_every_plan(self):
        for plan in FAULT_PLAN_NAMES:
            result = run_chaos(fault_plan=plan)
            assert result.passed, f"{plan}: {result.violations}"

    def test_same_seed_same_fingerprint(self):
        a = run_chaos(fault_plan="decode-crash")
        b = run_chaos(fault_plan="decode-crash")
        assert a.fingerprint == b.fingerprint
        assert len(a.metrics.completed) == len(b.metrics.completed)

    def test_different_seed_different_fingerprint(self):
        a = run_chaos(fault_plan="decode-crash", seed=1)
        b = run_chaos(fault_plan="decode-crash", seed=2)
        assert a.fingerprint != b.fingerprint

    def test_goodput_relative_to_healthy_baseline(self):
        report = chaos_report(["decode-crash"])
        healthy = report.runs["windserve/none"]
        assert healthy.fields["resilience"]["instance_crashes"] == 0
        assert healthy.fields["goodput_vs_healthy"] is None  # it is the anchor
        goodput = report.runs["windserve/decode-crash"].fields["goodput_vs_healthy"]
        assert goodput is not None
        assert 0.0 <= goodput <= 1.5

    def test_row_shape(self):
        (row,) = chaos_report(["none"]).rows()
        for key in ("run", "system", "plan", "completed", "shed", "invariants"):
            assert key in row


class TestRunChaosMatrix:
    def test_baseline_prepended_per_system(self):
        report = chaos_report(["decode-crash"])
        assert [r.cell.fault_plan for r in report.runs.values()] == ["none", "decode-crash"]
        assert report.runs["windserve/decode-crash"].fields["goodput_vs_healthy"] is not None
        for r in report.runs.values():
            assert r.passed, r.violations

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError):
            run_chaos(fault_plan="nope")
        with pytest.raises(ValueError, match="unknown fault plan"):
            chaos_report(["nope"])


class TestBaselineSystems:
    @pytest.mark.parametrize("system", ["distserve", "vllm"])
    def test_decode_crash_conserves_requests(self, system):
        result = run_chaos(system=system, fault_plan="decode-crash")
        assert result.passed, result.violations

    def test_distserve_prefill_crash(self):
        result = run_chaos(system="distserve", fault_plan="prefill-crash")
        assert result.passed, result.violations


class TestSmoke:
    def test_smoke_keeps_given_systems_and_plans(self, capsys):
        argv = "chaos --smoke --systems distserve --plans prefill-crash --json"
        assert main(argv.split()) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["runs"]) == ["distserve/none", "distserve/prefill-crash"]
        assert all(cell["num_requests"] == 60 for cell in report["cells"].values())

    def test_smoke_fills_unset_params(self):
        report = CHAOS.run(smoke=True, systems=["distserve"])
        assert list(report.runs) == ["distserve/none", "distserve/decode-crash"]
