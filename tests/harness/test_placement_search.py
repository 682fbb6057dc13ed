"""Tests for placement search by simulation."""

from __future__ import annotations

import pytest

from repro.harness.placement_search import search_placement
from repro.serving.placement import PLACEMENT_CANDIDATES


@pytest.fixture(scope="module")
def scores():
    return search_placement(
        system="distserve",
        model="opt-13b",
        dataset="sharegpt",
        rate_per_gpu=1.5,
        num_requests=120,
        num_node_gpus=8,
    )


class TestSearch:
    def test_returns_ranked_scores(self, scores):
        attainments = [s.slo_attainment for s in scores]
        assert attainments == sorted(attainments, reverse=True)

    def test_all_fitting_candidates_evaluated(self, scores):
        fitting = [
            c
            for c in PLACEMENT_CANDIDATES
            if c[0][0] * c[0][1] + c[1][0] * c[1][1] <= 8
        ]
        assert len(scores) == len(fitting)

    def test_labels_use_paper_notation(self, scores):
        assert all("TP-" in s.label() and "PP-" in s.label() for s in scores)

    def test_goodput_consistent(self, scores):
        for s in scores:
            assert s.goodput_per_gpu == pytest.approx(s.slo_attainment * 1.5)

    def test_node_size_filters_candidates(self):
        small = search_placement(
            system="distserve",
            model="opt-13b",
            dataset="sharegpt",
            rate_per_gpu=1.5,
            num_requests=60,
            num_node_gpus=4,
        )
        assert all(s.gpus_used <= 4 for s in small)

    def test_oversized_models_skipped(self):
        """OPT-66B cannot fit TP-1 configurations; they are skipped, not fatal."""
        scores = search_placement(
            system="distserve",
            model="opt-66b",
            dataset="sharegpt",
            rate_per_gpu=0.3,
            num_requests=40,
            candidates=(((1, 1), (1, 1)), ((2, 2), (2, 2))),
        )
        assert len(scores) == 1
        assert scores[0].gpus_used == 8

    def test_custom_candidates(self):
        scores = search_placement(
            system="windserve",
            model="opt-13b",
            dataset="sharegpt",
            rate_per_gpu=2.0,
            num_requests=60,
            candidates=(((2, 1), (2, 1)),),
        )
        assert len(scores) == 1
        assert scores[0].prefill_parallel == (2, 1)

    def test_unknown_system_rejected(self):
        """A misspelt system is an error, not an empty ranking that reads
        as "no feasible placement"."""
        with pytest.raises(ValueError, match="unknown system"):
            search_placement("windserv", "opt-13b", "sharegpt", 1.0)
