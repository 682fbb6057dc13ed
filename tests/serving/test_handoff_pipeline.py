"""The prefill->decode hand-off's failure branches, pinned per system.

None of the 21 goldens reaches DistServe's torn or deferred hand-off, or
either system's permanent ``kv-handoff`` failure.  Each case below drives
one of those branches, asserts the branch fired, that the run passes the
invariant suite, and that its run fingerprint is unchanged — so the shared
hand-off pipeline can move between modules without any run drifting.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.faults import FaultInjector, ResilienceConfig
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.harness.cell import Cell, clone_requests
from repro.harness.invariants import check_run

# (cell, counter that must fire, pinned run fingerprint)
CRASH_CASES = (
    (
        Cell(system="distserve", fault_plan="prefill-crash", seed=1, num_requests=60),
        "torn_handoff",
        "fa216745df084d7153bedf992f7b3bfcf9d662be535fc90cede70e56597fd5db",
    ),
    (
        Cell(system="distserve", fault_plan="decode-crash", seed=0, num_requests=60),
        "handoff_deferred",
        "a0eac4481ec11ca0bce12f46b5b968724668e9e31282c2256b4aa1e9687bccd0",
    ),
    (
        Cell(system="windserve", fault_plan="decode-crash", seed=0, num_requests=60),
        "handoff_deferred",
        "6cf5be7fe91518f0889fbd4d936f9d8e21893e22c0bbcb8c613932ec2ce8f925",
    ),
)


@pytest.mark.parametrize(
    "cell, counter, fingerprint",
    CRASH_CASES,
    ids=[f"{c.system}-{c.fault_plan}-{counter}" for c, counter, _ in CRASH_CASES],
)
def test_crash_reaches_handoff_branch(cell, counter, fingerprint):
    run = cell.run()
    assert run.metrics.counters.get(counter, 0) >= 1
    assert run.violations == []
    assert run.fingerprint.value == fingerprint


# A 1 s outage on every prefill<->decode path with a single retry: hand-off
# copies exhaust their retries and fail permanently.
PD_OUTAGE = FaultPlan(
    "pd-outage", (FaultEvent(FaultKind.LINK_OUTAGE, "pd", time=1.0, duration=1.0),)
)

OUTAGE_FINGERPRINTS = {
    "distserve": "4ce6bb4299054a76c77953121cf0a55af8563376c5711845e54e9d4766cd0fb5",
    "windserve": "9f671c604825de8e41ad2589afcdfef1535705dad6fcd51d0342516c026fcde0",
}


@dataclass(frozen=True)
class _OneRetryCell(Cell):
    """A cell whose hand-off copies give up after a single retry."""

    def resilience(self) -> ResilienceConfig:
        return ResilienceConfig(transfer_max_retries=1)


@pytest.mark.parametrize("system", sorted(OUTAGE_FINGERPRINTS))
def test_permanent_handoff_failure_reprefills(system):
    cell = _OneRetryCell(system=system)
    target = cell.build()
    workload = cell.workload()
    submitted = clone_requests(workload.rows)
    FaultInjector(target, PD_OUTAGE).arm()
    target.run_to_completion(submitted)
    assert target.metrics.counters.get("transfer_failed", 0) >= 1
    assert any(r.recompute_count for r in submitted)
    assert check_run(target, submitted) == []
    assert target.run_fingerprint(workload.rng_registry).value == OUTAGE_FINGERPRINTS[system]
