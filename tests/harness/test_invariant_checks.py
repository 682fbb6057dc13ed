"""Every check in :mod:`repro.harness.invariants` catches its violation.

Each case starts from a clean state — fabricated requests, or a small real
run drained to completion — injects exactly one violation, and requires
the check to name it.  ``test_clean_run_keeps_every_check`` pins the other
side: the same runs, untouched, report nothing.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.harness.cell import Cell
from repro.harness.invariants import (
    check_budget_watermarks,
    check_conservation,
    check_drained,
    check_fleet_recovered,
    check_kv_lifecycle,
    check_monotonic_times,
    check_prefix_ledger,
    check_requests,
    check_run,
    check_tenant_conservation,
    check_tier_conservation,
    check_token_causality,
)
from repro.kvcache.blocks import KVBlockManager
from repro.policies.fairshare import FairShareConfig
from repro.serving.request import Phase, Request

PREFIX_CELL = Cell(
    num_requests=16,
    prefix_mix="none=0.25,assistant=0.75:384",
    prefix_cache_tokens=4096,
)
TENANT_CELL = Cell(
    num_requests=16,
    admission_policy="fair-share",
    tenant_mix="acme=0.5,beta=0.5",
    tenant_max_inflight=4,
)


def done(rid, **fields) -> Request:
    request = Request(request_id=rid, prompt_tokens=10, output_tokens=5, arrival_time=0.0)
    request.prefilled_tokens = 10
    request.output_generated = 5
    request.prefill_start, request.first_token_time, request.finish_time = 0.1, 0.5, 1.0
    request.phase = Phase.FINISHED
    for name, value in fields.items():
        setattr(request, name, value)
    return request


def leaked_retired_pool():
    system = Cell(num_requests=8).run().target
    pool = KVBlockManager(
        gpu_capacity_tokens=1024, cpu_capacity_tokens=0, block_size=16, bytes_per_token=1.0
    )
    pool.allocate(7, 100)  # never freed: the crash archive leaks
    system.instances[0].retired_kv.append(pool)
    return check_kv_lifecycle(system)


def leaked_allocation():
    system = Cell(num_requests=8).run().target
    system.instances[0].kv.allocate(4242, 100)  # a request's KV nobody freed
    return check_kv_lifecycle(system)


def unsettled_charge():
    system = Cell(num_requests=8).run().target
    system.instances[-1].kv.charge(1)  # a boundary block no lane wrote back
    return check_kv_lifecycle(system)


def stuck_waiting():
    system = Cell(num_requests=8).run().target
    system.instances[0].waiting.append(done(99))
    return check_drained(system)


def unbalanced_prefix_ledger():
    run = PREFIX_CELL.run()
    run.metrics.counters["prefix_tokens_saved"] += 1
    return check_prefix_ledger(run.target, run.metrics)


def budget_overrun():
    system = TENANT_CELL.run().target
    system.metrics.counters["tenant_peak_inflight[tenant:acme]"] = 5
    return check_budget_watermarks(system, FairShareConfig(max_inflight=4))


def run_with_lost_request():
    run = Cell(num_requests=8).run()
    return check_run(run.target, run.submitted + [done(99)])


#: check -> (inject one violation, returning the problems; expected text)
CASES = {
    "conservation": (
        lambda: check_conservation([done(0), done(1)], [done(0), done(0)], []),
        "completed more than once",
    ),
    "conservation-shed": (
        lambda: check_conservation([done(0)], [done(0)], [done(0)]),
        "both completed and shed",
    ),
    "tier-conservation": (
        lambda: check_tier_conservation(
            [done(0, tier="interactive")], [done(0, tier="best_effort")], []
        ),
        "changed tier in flight",
    ),
    "tenant-conservation": (
        lambda: check_tenant_conservation(
            [done(0, tenant="a"), done(1, tenant="b")], [done(0, tenant="a")], []
        ),
        "tenant 'b' lost requests",
    ),
    "token-causality": (
        lambda: check_token_causality([done(0, first_token_time=0.05)]),
        "before prefill started",
    ),
    "monotonic-times": (
        lambda: check_monotonic_times([done(0, finish_time=0.2)]),
        "precedes",
    ),
    "requests": (
        lambda: check_requests([done(0, phase=Phase.DECODING)]),
        "not finished",
    ),
    "prefix-ledger": (unbalanced_prefix_ledger, "!= index ledger"),
    "kv-lifecycle-leak": (leaked_allocation, "/kv: allocations never freed for 1 rid(s) [4242]"),
    "kv-lifecycle-retired-pool": (
        leaked_retired_pool,
        "retired-kv#0: allocations never freed for 1 rid(s) [7]",
    ),
    "kv-lifecycle-charged": (unsettled_charge, "charged KV blocks never settled"),
    "drained": (stuck_waiting, "stuck waiting"),
    "fleet-recovered": (
        lambda: check_fleet_recovered(SimpleNamespace(crashed={1}, failed=set())),
        "still crashed",
    ),
    "budget-watermarks": (budget_overrun, "exceeds budget 4"),
    "run": (run_with_lost_request, "silently dropped"),
}


@pytest.mark.parametrize("name", CASES)
def test_check_catches_injected_violation(name):
    inject, expected = CASES[name]
    problems = inject()
    assert any(expected in problem for problem in problems), problems


@pytest.mark.parametrize("cell", [Cell(num_requests=8), PREFIX_CELL, TENANT_CELL])
def test_clean_run_keeps_every_check(cell):
    run = cell.run()
    assert run.violations == []
    assert check_run(run.target, run.submitted, cell.fairshare()) == []
