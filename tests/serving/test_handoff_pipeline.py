"""The prefill->decode hand-off's failure branches, pinned per system.

None of the 21 goldens reaches DistServe's torn or deferred hand-off, or
either system's permanent ``kv-handoff`` failure.  Each case below drives
one of those branches, asserts the branch fired, that the run passes the
invariant suite, and that its run fingerprint is unchanged — so the shared
hand-off pipeline can move between modules without any run drifting.

The WindServe cases also pin their trace and per-request hashes: the
combined digests moved once, when callback-free transfers stopped
scheduling a completion event, and only through ``events_processed``.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.harness.cell import Cell, clone_requests
from repro.harness.invariants import check_run
from repro.kvcache.transfer import RetryPolicy

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
        "c03ef978537b7bebdc3ad554db6338b7c217607d715a3ecacac08630fcad9b30",
    ),
)

# The empty trace's hash: none of these runs records trace rows.
NO_TRACE = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# Fault plan -> per-request hash of the WindServe case run under it.
WINDSERVE_REQUESTS = {
    "decode-crash": "b572b1be26b0d72badb0248fc0bfdcb419d6ac0b7bee3a3ea4313ffa9bfb857e",
    "pd-outage": "379f1a5b7814bd7d661440c880f8520a3ba86e40b1d8afe0b084014b0fc3e576",
}


def _assert_windserve_parts(fingerprint, case):
    assert fingerprint.trace_hash == NO_TRACE
    assert fingerprint.requests_hash == WINDSERVE_REQUESTS[case]


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
    if cell.system == "windserve":
        _assert_windserve_parts(run.fingerprint, cell.fault_plan)


# A 1 s outage on every prefill<->decode path with a single retry: hand-off
# copies exhaust their retries and fail permanently.
PD_OUTAGE = FaultPlan(
    "pd-outage", (FaultEvent(FaultKind.LINK_OUTAGE, "pd", time=1.0, duration=1.0),)
)

OUTAGE_FINGERPRINTS = {
    "distserve": "4ce6bb4299054a76c77953121cf0a55af8563376c5711845e54e9d4766cd0fb5",
    "windserve": "30fadc7d6f3af996d58047ed3d1c05567c1ba81b75602635c06f21e803c18332",
}


@pytest.mark.parametrize("system", sorted(OUTAGE_FINGERPRINTS))
def test_permanent_handoff_failure_reprefills(system):
    cell = Cell(system=system)
    target = cell.build()
    target.transfers.retry = RetryPolicy(max_retries=1)  # hand-offs give up after one retry
    workload = cell.workload()
    submitted = clone_requests(workload.rows)
    FaultInjector(target, PD_OUTAGE).arm()
    target.run_to_completion(submitted)
    assert target.metrics.counters.get("transfer_failed", 0) >= 1
    assert any(r.recompute_count for r in submitted)
    assert check_run(target, submitted) == []
    fingerprint = target.run_fingerprint(workload.rng_registry)
    assert fingerprint.value == OUTAGE_FINGERPRINTS[system]
    if system == "windserve":
        _assert_windserve_parts(fingerprint, "pd-outage")
