"""Tests for the differential comparison and its shared invariants."""

from __future__ import annotations

import pytest

from repro.harness.cell import Cell, clone_requests
from repro.harness.experiments import DIFFERENTIAL
from repro.harness.invariants import (
    check_conservation,
    check_monotonic_times,
    check_token_causality,
)
from repro.serving.request import Phase, Request

# The acceptance matrix: >= 3 workload/seed combinations, all systems.
COMBOS = (
    (Cell(rate_per_gpu=3.0, num_requests=40), 0),
    (Cell(rate_per_gpu=3.5, num_requests=40, arrival_process="bursty"), 3),
    (Cell(rate_per_gpu=2.0, num_requests=40), 11),
)


@pytest.mark.parametrize(
    "base, seed", COMBOS, ids=[f"r{c.rate_per_gpu}-s{seed}" for c, seed in COMBOS]
)
def test_all_systems_share_invariants(base, seed):
    report = DIFFERENTIAL.run(base, seeds=[seed])
    assert {run.cell.system for run in report.runs.values()} == {"windserve", "distserve", "vllm"}
    for label, run in report.runs.items():
        assert run.passed, f"{label}: {run.violations}"
    assert report.passed


def test_workload_is_byte_identical_across_clones():
    report_a = DIFFERENTIAL.run(Cell(num_requests=10), seeds=[0])
    report_b = DIFFERENTIAL.run(Cell(num_requests=10), seeds=[0])
    digests = {run.fields["workload"] for r in (report_a, report_b) for run in r.runs.values()}
    assert len(digests) == 1  # every system, both reports: the same bytes


def test_clones_are_fresh_objects():
    rows = [{"id": 0, "arrival": 0.5, "prompt": 10, "output": 5}]
    a, b = clone_requests(rows), clone_requests(rows)
    assert a[0] is not b[0]
    a[0].output_generated = 5  # mutating one clone must not leak
    assert b[0].output_generated == 0


def test_mismatched_gpu_counts_rejected():
    # The default cells use equal GPU counts, so this runs ...
    assert DIFFERENTIAL.run(Cell(num_requests=5), systems=["windserve", "vllm"], seeds=[0]).passed
    # ... while handing a cell a workload sized for other hardware is refused.
    workload = Cell(num_requests=5).workload()
    with pytest.raises(ValueError, match="shared rate would differ"):
        Cell(num_requests=5, decode_parallel=(1, 1)).run(workload)


class TestInvariantCheckers:
    """The checkers must actually catch fabricated violations."""

    def _finished(self, rid=0, arrival=0.0, prefill=0.1, first=0.5, finish=1.0):
        request = Request(
            request_id=rid, prompt_tokens=10, output_tokens=5, arrival_time=arrival
        )
        request.prefilled_tokens = 10
        request.output_generated = 5
        request.prefill_start = prefill
        request.first_token_time = first
        request.finish_time = finish
        request.phase = Phase.FINISHED
        return request

    def test_conservation_catches_loss_and_duplicates(self):
        submitted = [self._finished(0), self._finished(1)]
        completed = [self._finished(0), self._finished(0)]
        problems = check_conservation(submitted, completed, [])
        assert any("dropped" in p for p in problems)
        assert any("more than once" in p for p in problems)

    def test_conservation_catches_phantoms(self):
        problems = check_conservation([self._finished(0)], [self._finished(0), self._finished(9)], [])
        assert any("phantom" in p for p in problems)

    def test_causality_catches_token_before_prefill(self):
        bad = self._finished(first=0.05, prefill=0.1)  # token before prefill start
        assert any("before prefill" in p for p in check_token_causality([bad]))

    def test_causality_catches_incomplete_prefill(self):
        bad = self._finished()
        bad.prefilled_tokens = 3
        assert any("incomplete prefill" in p for p in check_token_causality([bad]))

    def test_causality_catches_missing_tokens(self):
        bad = self._finished()
        bad.output_generated = 2
        assert any("generated 2 of 5" in p for p in check_token_causality([bad]))

    def test_monotonicity_catches_backwards_finish(self):
        bad = self._finished(finish=0.2, first=0.5)
        assert any("precedes" in p for p in check_monotonic_times([bad]))

    def test_clean_requests_produce_no_violations(self):
        good = [self._finished(0), self._finished(1)]
        assert check_conservation(good, good, []) == []
        assert check_token_causality(good) == []
        assert check_monotonic_times(good) == []
