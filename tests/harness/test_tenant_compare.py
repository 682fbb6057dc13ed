"""Tenant isolation differential + per-tenant invariants and metrics.

A small comparison cell must discriminate — fair-share holds the isolation
bound the FIFO baseline violates — while every run keeps the shed-aware
conservation, budget-watermark, and drained-system checks green.
"""

from __future__ import annotations

from repro.harness import claims
from repro.harness.experiments import (
    BASELINE_RUN,
    BURST_WINDOW,
    FAIRSHARE_RUN,
    FIFO_RUN,
    burst_rows,
)
from repro.harness.invariants import check_tenant_conservation
from repro.serving.metrics import MetricsCollector
from repro.serving.request import Request

(CLAIM,) = (c for c in claims.CLAIMS if c.id == "ext_tenants")
CHECKS = {check.name: check for check in CLAIM.checks}


def test_comparison_discriminates_and_keeps_invariants():
    rows = CLAIM.rows()  # raises on an invariant violation
    by_run = {r["run"]: r for r in rows}
    assert set(by_run) == {BASELINE_RUN, FAIRSHARE_RUN, FIFO_RUN}
    assert CHECKS["isolation_holds"].check(rows), "fair-share broke the isolation bound"
    assert CHECKS["fifo_violates"].check(rows), "FIFO held the bound: cell not discriminating"
    assert CHECKS["fairshare_beats_fifo"].check(rows)
    # Budgets actually bit in the fair-share burst run, and never in FIFO.
    assert by_run[FAIRSHARE_RUN]["budget_sheds"] > 0
    assert by_run[FIFO_RUN]["budget_sheds"] == 0
    # Both burst runs consume the same bytes; the baseline has no burst.
    assert by_run[FAIRSHARE_RUN]["workload"] == by_run[FIFO_RUN]["workload"]
    assert by_run[BASELINE_RUN]["submitted"] < by_run[FIFO_RUN]["submitted"]


def light_rows(baseline, fair, fifo):
    return [
        {"run": run, "light_p99_ttft": p99}
        for run, p99 in ((BASELINE_RUN, baseline), (FAIRSHARE_RUN, fair), (FIFO_RUN, fifo))
    ]


def test_isolation_checks_fail_in_the_wrong_direction():
    held = {name: check.check(light_rows(1.0, 1.4, 2.0)) for name, check in CHECKS.items()}
    assert all(held.values())
    # Fair-share past the 1.5x bound; FIFO within it; FIFO beating fair-share.
    assert not CHECKS["isolation_holds"].check(light_rows(1.0, 1.6, 2.0))
    assert not CHECKS["fifo_violates"].check(light_rows(1.0, 1.4, 1.5))
    assert not CHECKS["fairshare_beats_fifo"].check(light_rows(1.0, 1.4, 1.3))
    # No baseline latency to bound against: neither bound check holds.
    assert not CHECKS["isolation_holds"].check(light_rows(0.0, 1.4, 2.0))
    assert not CHECKS["fifo_violates"].check(light_rows(0.0, 1.4, 2.0))


def test_burst_rows_are_deterministic_and_heavy_owned():
    base = [
        {"id": i, "arrival": float(i), "prompt": 100, "output": 50}
        for i in range(10)
    ]
    rows = burst_rows(base, 32)
    assert rows == burst_rows(base, 32)
    assert len(rows) == 32
    assert all(row["tenant"] == "heavy" for row in rows)
    assert min(row["id"] for row in rows) == 10  # continues after the base ids
    arrivals = [row["arrival"] for row in rows]
    assert arrivals == sorted(arrivals)
    assert max(arrivals) - min(arrivals) <= BURST_WINDOW


# -- check_tenant_conservation unit -------------------------------------------


def _request(rid, tenant):
    return Request(
        request_id=rid,
        prompt_tokens=10,
        output_tokens=5,
        arrival_time=0.0,
        tenant=tenant,
    )


def test_tenant_conservation_accepts_balanced_outcomes():
    submitted = [_request(1, "a"), _request(2, "a"), _request(3, "b")]
    completed = [submitted[0], submitted[2]]
    shed = [submitted[1]]
    assert check_tenant_conservation(submitted, completed, shed) == []


def test_tenant_conservation_flags_lost_requests():
    submitted = [_request(1, "a"), _request(2, "b")]
    problems = check_tenant_conservation(submitted, [submitted[0]], [])
    assert any("'b' lost requests" in p for p in problems)


def test_tenant_conservation_flags_mutated_ownership():
    submitted = [_request(1, "a")]
    mutated = _request(1, "b")
    problems = check_tenant_conservation(submitted, [mutated], [])
    assert any("changed tenant" in p for p in problems)


# -- per-tenant metrics merging -----------------------------------------------


def test_merge_sums_tenant_counters_and_namespaces_peaks():
    """Fleet merges must sum per-tenant tallies but *namespace* watermarks:
    summing point-in-time maxima across members would fabricate usage no
    instant ever saw."""
    a, b = MetricsCollector(), MetricsCollector()
    a.counters["tenant_budget_shed[tenant:acme]"] = 2
    b.counters["tenant_budget_shed[tenant:acme]"] = 3
    a.counters["tenant_peak_inflight[tenant:acme]"] = 4
    b.counters["tenant_peak_inflight[tenant:acme]"] = 7

    merged = MetricsCollector()
    merged.merge_from(a, label="m0")
    merged.merge_from(b, label="m1")
    assert merged.counters["tenant_budget_shed[tenant:acme]"] == 5
    assert merged.counters["m0:tenant_peak_inflight[tenant:acme]"] == 4
    assert merged.counters["m1:tenant_peak_inflight[tenant:acme]"] == 7
    assert "tenant_peak_inflight[tenant:acme]" not in merged.counters


def test_unlabelled_merge_folds_peaks_by_max():
    a, b = MetricsCollector(), MetricsCollector()
    a.counters["tenant_peak_tokens[tenant:x]"] = 100
    b.counters["tenant_peak_tokens[tenant:x]"] = 60
    merged = MetricsCollector()
    merged.merge_from(a)
    merged.merge_from(b)
    assert merged.counters["tenant_peak_tokens[tenant:x]"] == 100
