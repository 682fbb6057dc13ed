"""Tests for goodput-capacity search."""

from __future__ import annotations

import pytest

from repro.harness.capacity import CapacityResult, find_capacity
from repro.harness.cell import Cell


def spec(system="windserve") -> Cell:
    return Cell(
        system=system,
        model="opt-13b",
        dataset="sharegpt",
        rate_per_gpu=1.0,  # overridden by the search
        num_requests=150,
        seed=5,
    )


class TestValidation:
    def test_bad_target(self):
        with pytest.raises(ValueError):
            find_capacity(spec(), target_attainment=0.0)

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            find_capacity(spec(), low=2.0, high=1.0)


class TestSearch:
    @pytest.fixture(scope="class")
    def windserve_capacity(self) -> CapacityResult:
        return find_capacity(spec(), target_attainment=0.5, low=0.5, high=8.0, iterations=5)

    def test_capacity_in_bracket(self, windserve_capacity):
        assert 0.5 <= windserve_capacity.capacity_per_gpu <= 8.0

    def test_capacity_point_meets_target(self, windserve_capacity):
        assert windserve_capacity.attainment_at_capacity >= 0.5

    def test_probes_recorded(self, windserve_capacity):
        assert len(windserve_capacity.probes) >= 4

    def test_windserve_capacity_exceeds_distserve(self, windserve_capacity):
        """The headline claim as a single number: WindServe sustains a
        higher rate at equal service quality."""
        ds = find_capacity(
            spec("distserve"), target_attainment=0.5, low=0.5, high=8.0, iterations=5
        )
        assert windserve_capacity.capacity_per_gpu > ds.capacity_per_gpu

    def test_low_already_failing_reports_low(self):
        result = find_capacity(
            spec("distserve"), target_attainment=0.999, low=5.0, high=8.0, iterations=2
        )
        assert result.capacity_per_gpu == 5.0
        assert result.attainment_at_capacity < 0.999

    def test_saturating_high(self):
        result = find_capacity(
            spec(), target_attainment=0.01, low=0.5, high=1.0, iterations=2
        )
        assert result.capacity_per_gpu == 1.0

    def test_row_shape(self, windserve_capacity):
        row = windserve_capacity.row()
        assert row["system"] == "windserve"
        assert "capacity req/s/GPU" in row
