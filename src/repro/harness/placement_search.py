"""Placement search by simulation (paper Table 3 / DistServe methodology).

DistServe chooses instance parallelism by simulating candidate placements
and keeping the one with the best SLO attainment (per GPU).  We do the same
with our simulator: enumerate (prefill, decode) parallelism candidates that
fit the node, run a short workload through each, and rank.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.harness.cell import Cell
from repro.harness.runner import SYSTEM_NAMES
from repro.serving.placement import PLACEMENT_CANDIDATES


@dataclass
class PlacementScore:
    """Outcome of simulating one candidate placement."""

    prefill_parallel: tuple[int, int]
    decode_parallel: tuple[int, int]
    gpus_used: int
    slo_attainment: float
    goodput_per_gpu: float

    def label(self) -> str:
        p, d = self.prefill_parallel, self.decode_parallel
        return f"[TP-{p[0]}, PP-{p[1]} | TP-{d[0]}, PP-{d[1]}]"


def search_placement(
    system: str,
    model: str,
    dataset: str,
    rate_per_gpu: float,
    candidates: Optional[Sequence[tuple[tuple[int, int], tuple[int, int]]]] = None,
    num_requests: int = 300,
    num_node_gpus: int = 8,
    seed: int = 0,
    gpu: str = "a800-80gb",
) -> list[PlacementScore]:
    """Rank candidate placements by simulated SLO attainment (ties: goodput).

    ``gpu`` (a ``GPU_REGISTRY`` key) searches on a specific device type
    (heterogeneous fleets rank per-member placements on each member's own
    hardware); the default is the paper's A800 testbed.
    """
    if system not in SYSTEM_NAMES:
        raise ValueError(f"unknown system {system!r}; known: {SYSTEM_NAMES}")
    base = Cell(
        system=system,
        model=model,
        dataset=dataset,
        rate_per_gpu=rate_per_gpu,
        num_requests=num_requests,
        seed=seed,
        num_node_gpus=num_node_gpus,
        gpu=gpu,
    )
    scores: list[PlacementScore] = []
    for prefill_par, decode_par in candidates or PLACEMENT_CANDIDATES:
        cell = replace(base, prefill_parallel=prefill_par, decode_parallel=decode_par)
        if cell.gpus_used > num_node_gpus:
            continue
        try:
            summary = cell.run().summary()
        except ValueError:
            continue  # model does not fit this parallelism
        attainment = summary.get("slo_attainment", 0.0)
        goodput = attainment * rate_per_gpu
        scores.append(
            PlacementScore(
                prefill_parallel=prefill_par,
                decode_parallel=decode_par,
                gpus_used=cell.gpus_used,
                slo_attainment=attainment,
                goodput_per_gpu=goodput,
            )
        )
    scores.sort(key=lambda s: (s.slo_attainment, s.goodput_per_gpu), reverse=True)
    return scores
