"""Capacity search: the highest per-GPU rate a system can serve well.

Serving papers (DistServe included) summarise a system by its *goodput
capacity*: the maximum request rate at which a target fraction of requests
still meets both SLOs.  SLO attainment is monotonically non-increasing in
rate (modulo simulation noise), so a bracketed bisection finds the knee.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.harness.cell import Cell


@dataclass
class CapacityResult:
    """Outcome of a capacity search for one system."""

    system: str
    target_attainment: float
    capacity_per_gpu: float
    attainment_at_capacity: float
    probes: list[tuple[float, float]]  # (rate, attainment) evaluated

    def row(self) -> dict:
        return {
            "system": self.system,
            "capacity req/s/GPU": self.capacity_per_gpu,
            "attainment there": self.attainment_at_capacity,
            "probes": len(self.probes),
        }


def attainment_at(cell: Cell, rate: float) -> float:
    return replace(cell, rate_per_gpu=rate).run().summary().get("slo_attainment", 0.0)


def find_capacity(
    cell: Cell,
    target_attainment: float = 0.9,
    low: float = 0.1,
    high: float = 8.0,
    iterations: int = 7,
) -> CapacityResult:
    """Bisect ``cell``'s per-GPU rate for the highest holding ``target_attainment``.

    ``low`` must meet the target and ``high`` should violate it; if ``low``
    already fails, capacity is reported as ``low`` with its attainment; if
    ``high`` still passes, the search saturates at ``high``.
    """
    if not 0 < target_attainment <= 1:
        raise ValueError("target_attainment must be in (0, 1]")
    if low <= 0 or high <= low:
        raise ValueError("need 0 < low < high")
    probes: list[tuple[float, float]] = []

    low_att = attainment_at(cell, low)
    probes.append((low, low_att))
    if low_att < target_attainment:
        return CapacityResult(cell.system, target_attainment, low, low_att, probes)

    high_att = attainment_at(cell, high)
    probes.append((high, high_att))
    if high_att >= target_attainment:
        return CapacityResult(cell.system, target_attainment, high, high_att, probes)

    best_rate, best_att = low, low_att
    lo, hi = low, high
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        att = attainment_at(cell, mid)
        probes.append((mid, att))
        if att >= target_attainment:
            best_rate, best_att = mid, att
            lo = mid
        else:
            hi = mid
    return CapacityResult(cell.system, target_attainment, best_rate, best_att, probes)
