"""Tests for the differential comparison and its shared invariants."""

from __future__ import annotations

import pytest

from repro.harness import claims
from repro.harness.cell import Cell, clone_requests
from repro.harness.claims import compare_runs
from repro.harness.experiments import differential_cells
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
    # compare_runs raises on any invariant violation.
    rows = compare_runs(differential_cells(base, [seed]))
    assert [r["run"] for r in rows] == [f"s{seed}:{s}" for s in ("windserve", "distserve", "vllm")]
    for check in CHECKS.values():
        if check.name != "seeds_differ":  # one seed here
            assert check.check(rows), check.name


def test_workload_is_byte_identical_across_clones():
    rows_a = compare_runs(differential_cells(Cell(num_requests=10), [0]))
    rows_b = compare_runs(differential_cells(Cell(num_requests=10), [0]))
    digests = {r["workload"] for r in rows_a + rows_b}
    assert len(digests) == 1  # every system, both runs: the same bytes


CHECKS = {v.name: v for c in claims.CLAIMS if c.id == "ext_differential" for v in c.checks}


def stub_rows(*digests, completed=40):
    return [
        {"run": f"s{i}:{system}", "submitted": 40, "completed": completed, "shed": 0, "workload": d}
        for i, seed_digests in enumerate(digests)
        for system, d in zip(("windserve", "distserve", "vllm"), seed_digests)
    ]


def test_differential_checks_fail_on_broken_rows():
    good = stub_rows("aaa", "bbb", "ccc")
    assert all(check.check(good) for check in CHECKS.values())
    assert not CHECKS["one_workload_per_seed"].check(stub_rows(["a", "a", "x"], "bbb"))
    assert not CHECKS["seeds_differ"].check(stub_rows("aaa", "aaa"))
    assert not CHECKS["requests_conserved"].check(stub_rows("aaa", completed=39))
    assert not any(check.check([]) for check in CHECKS.values())


def test_clones_are_fresh_objects():
    rows = [{"id": 0, "arrival": 0.5, "prompt": 10, "output": 5}]
    a, b = clone_requests(rows), clone_requests(rows)
    assert a[0] is not b[0]
    a[0].output_generated = 5  # mutating one clone must not leak
    assert b[0].output_generated == 0


def test_mismatched_gpu_counts_rejected():
    # The default cells use equal GPU counts, so this runs ...
    assert len(compare_runs(differential_cells(Cell(num_requests=5), [0]))) == 3
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
