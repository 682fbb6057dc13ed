"""Tests for the chaos comparison: invariants, conservation, reproducibility."""

from __future__ import annotations

import pytest

from repro.faults.plan import FAULT_PLAN_NAMES
from repro.harness import claims
from repro.harness.cell import Cell
from repro.harness.claims import compare_runs
from repro.harness.experiments import chaos_cells, chaos_fields
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


CHAOS_KW = dict(num_requests=40, rate_per_gpu=3.0, seed=7)


def run_chaos(**kw):
    return Cell(**{**CHAOS_KW, **kw}).run()


def chaos_rows(plans, **kw):
    cells = chaos_cells("t", Cell(**{**CHAOS_KW, **kw}), ["windserve"], plans)
    return compare_runs(cells, chaos_fields)


def by_run(rows):
    return {r["run"]: r for r in rows}


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
        rows = by_run(chaos_rows(["decode-crash"]))
        healthy = rows["t:windserve/none"]
        assert healthy["requests_requeued"] == 0
        assert healthy["goodput_vs_healthy"] is None  # it is the anchor
        faulted = rows["t:windserve/decode-crash"]
        # SLO-met requests of the faulted run over those of its healthy twin.
        met, healthy_met = (
            round(r["slo_attainment"] * r["submitted"]) for r in (faulted, healthy)
        )
        assert faulted["goodput_vs_healthy"] == pytest.approx(met / healthy_met)
        assert 0.0 <= faulted["goodput_vs_healthy"] <= 1.0

    def test_row_shape(self):
        (row,) = chaos_rows([])
        for key in ("run", "system", "plan", "completed", "shed", "workload", "fingerprint"):
            assert key in row
        assert len(row["workload"]) == len(row["fingerprint"]) == 12


class TestRunChaosMatrix:
    def test_baseline_prepended_per_system(self):
        rows = chaos_rows(["decode-crash"])
        assert [r["plan"] for r in rows] == ["none", "decode-crash"]
        assert by_run(rows)["t:windserve/decode-crash"]["goodput_vs_healthy"] is not None

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError):
            run_chaos(fault_plan="nope")
        with pytest.raises(ValueError, match="unknown fault plan"):
            chaos_rows(["nope"])


class TestBaselineSystems:
    @pytest.mark.parametrize("system", ["distserve", "vllm"])
    def test_decode_crash_conserves_requests(self, system):
        result = run_chaos(system=system, fault_plan="decode-crash")
        assert result.passed, result.violations

    def test_distserve_prefill_crash(self):
        result = run_chaos(system="distserve", fault_plan="prefill-crash")
        assert result.passed, result.violations


def stub_row(run, plan, slo, goodput, requeued=1, detection=0.1):
    return {
        "run": run,
        "plan": plan,
        "slo_attainment": slo,
        "goodput_vs_healthy": goodput,
        "requests_requeued": requeued,
        "detection_latency_s": detection,
    }


class TestChaosChecks:
    """Each ext_chaos check fails on rows that break it."""

    CHECKS = {v.name: v for c in claims.CLAIMS if c.id == "ext_chaos" for v in c.checks}

    def rows(self, **faulted):
        return [
            stub_row("s:windserve/none", "none", 0.8, None, requeued=0, detection=0.0),
            stub_row("s:windserve/decode-crash", "decode-crash", 0.5, 0.7, **faulted),
        ]

    def holds(self, name, rows):
        return self.CHECKS[name].check(rows)

    def test_clean_rows_pass_every_check(self):
        assert all(self.holds(name, self.rows()) for name in self.CHECKS)

    def test_no_faulted_row_means_no_verdict(self):
        assert not any(self.holds(name, self.rows()[:1]) for name in self.CHECKS)

    def test_each_check_has_a_failing_direction(self):
        assert not self.holds("faults_requeue", self.rows(requeued=0))
        assert not self.holds("faults_detected", self.rows(detection=0.0))
        rows = self.rows()
        rows[1]["slo_attainment"] = 0.9  # beats its fault-free twin
        assert not self.holds("faults_cost_slo", rows)
        for goodput in (1.2, None):
            rows = self.rows()
            rows[1]["goodput_vs_healthy"] = goodput
            assert not self.holds("goodput_bounded", rows)

    def test_twin_is_found_by_label(self):
        rows = self.rows()
        rows[0]["run"] = "other:windserve/none"  # no twin for the faulted row
        assert not self.holds("faults_cost_slo", rows)
