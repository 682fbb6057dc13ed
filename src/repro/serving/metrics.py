"""Service-quality metrics: TTFT/TPOT percentiles, SLO attainment, utilisation.

The paper reports TTFT P50/P99, TPOT P90/P99, and the *SLO attainment rate*
defined as the fraction of requests meeting **both** their TTFT and TPOT
SLOs.  Utilisation counters (tensor-core-busy and HBM-busy integrals per
instance) feed the Fig. 2 reproduction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.serving.request import DEFAULT_TENANT, TIERS, Request


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile; NaN for empty input."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass(frozen=True)
class SLO:
    """Per-request latency objectives (paper Table 4)."""

    ttft: float
    tpot: float

    def met_by(self, request: Request) -> bool:
        ttft, tpot = request.ttft, request.tpot
        if ttft is None or tpot is None:
            return False
        return ttft <= self.ttft and tpot <= self.tpot

    def ttft_met_by(self, request: Request) -> bool:
        return request.ttft is not None and request.ttft <= self.ttft

    def tpot_met_by(self, request: Request) -> bool:
        return request.tpot is not None and request.tpot <= self.tpot


@dataclass
class LatencyStats:
    """Percentile summary of one latency series."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencyStats":
        if len(values) == 0:
            nan = float("nan")
            return cls(0, nan, nan, nan, nan)
        arr = np.asarray(values, dtype=float)
        return cls(
            count=len(arr),
            mean=float(arr.mean()),
            p50=float(np.percentile(arr, 50)),
            p90=float(np.percentile(arr, 90)),
            p99=float(np.percentile(arr, 99)),
        )


@dataclass
class UtilizationSample:
    """Busy-time integral of one instance over the run."""

    compute_busy: float = 0.0
    io_busy: float = 0.0
    wall_busy: float = 0.0
    lanes: int = 1

    def compute_utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.compute_busy / (elapsed * self.lanes))

    def io_utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.io_busy / (elapsed * self.lanes))


class MetricsCollector:
    """Accumulates completed requests and system counters during a run."""

    def __init__(self) -> None:
        self.completed: list[Request] = []
        self.shed: list[Request] = []
        self.counters: Counter[str] = Counter()
        self.utilization: dict[str, UtilizationSample] = {}
        self.fault_events: list[dict] = []
        self.horizon: float = 0.0

    # -- recording ---------------------------------------------------------

    def record_completion(self, request: Request) -> None:
        self.completed.append(request)

    def record_shed(self, request: Request) -> None:
        """Admission control (or the rate-limit gateway) rejected ``request``."""
        self.shed.append(request)
        self.counters["requests_shed"] += 1
        self.counters[f"requests_shed[{request.tier}]"] += 1
        # Tenant counters are namespaced with a ``tenant:`` marker so a
        # tenant named after a tier can never collide with the tier keys,
        # and only appear for tenant-carrying requests (goldens unchanged).
        if request.tenant != DEFAULT_TENANT:
            self.counters[f"requests_shed[tenant:{request.tenant}]"] += 1

    def record_fault_event(self, kind: str, target: str, time: float) -> None:
        """Log one fault-lifecycle event (crash/detect/recover/...)."""
        self.fault_events.append({"kind": kind, "target": target, "time": time})

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] += amount

    def merge_from(self, other: "MetricsCollector", label: Optional[str] = None) -> None:
        """Fold another collector's results into this one (fleet aggregation).

        ``label`` namespaces the per-instance utilization keys and fault
        targets so same-named instances from different fleet members stay
        distinguishable (detection/downtime pairing matches on target).
        """
        self.completed.extend(other.completed)
        self.shed.extend(other.shed)
        for key, value in other.counters.items():
            if key.startswith("tenant_peak_"):
                # Watermark counters are point-in-time maxima; summing them
                # across members would fabricate usage no instant ever saw.
                # Namespace each member's watermark under its label (like
                # utilization keys and fault targets) and fold unlabelled
                # merges by max.
                peak_key = f"{label}:{key}" if label else key
                if value > self.counters.get(peak_key, 0):
                    self.counters[peak_key] = value
            else:
                self.counters[key] += value
        for event in other.fault_events:
            target = f"{label}:{event['target']}" if label else event["target"]
            self.fault_events.append({**event, "target": target})
        for name, sample in other.utilization.items():
            key = f"{label}:{name}" if label else name
            self.utilization[key] = sample
        self.horizon = max(self.horizon, other.horizon)

    def record_batch(
        self, instance: str, duration: float, compute_time: float, io_time: float, lanes: int
    ) -> None:
        sample = self.utilization.get(instance)
        if sample is None:
            sample = self.utilization[instance] = UtilizationSample(lanes=lanes)
        sample.compute_busy += compute_time
        sample.io_busy += io_time
        sample.wall_busy += duration

    # -- summaries -----------------------------------------------------------

    def after_warmup(self, fraction: float) -> "MetricsCollector":
        """The completions past the first ``fraction`` by arrival time.

        Counters, utilization and horizon are shared with this collector;
        percentile statistics read the trimmed completions only.
        """
        warmup = int(len(self.completed) * fraction)
        if not warmup:
            return self
        trimmed = MetricsCollector()
        trimmed.completed.extend(sorted(self.completed, key=lambda r: r.arrival_time)[warmup:])
        trimmed.counters = self.counters
        trimmed.utilization = self.utilization
        trimmed.horizon = self.horizon
        return trimmed

    @property
    def ttfts(self) -> list[float]:
        return [r.ttft for r in self.completed if r.ttft is not None]

    @property
    def tpots(self) -> list[float]:
        return [r.tpot for r in self.completed if r.tpot is not None]

    @property
    def decode_queue_delays(self) -> list[float]:
        return [
            r.decode_queue_delay for r in self.completed if r.decode_queue_delay is not None
        ]

    def ttft_stats(self) -> LatencyStats:
        return LatencyStats.from_values(self.ttfts)

    def tpot_stats(self) -> LatencyStats:
        return LatencyStats.from_values(self.tpots)

    def slo_attainment(self, slo: SLO) -> float:
        """Fraction of completed requests meeting both SLOs."""
        if not self.completed:
            return float("nan")
        return sum(slo.met_by(r) for r in self.completed) / len(self.completed)

    def ttft_attainment(self, slo: SLO) -> float:
        if not self.completed:
            return float("nan")
        return sum(slo.ttft_met_by(r) for r in self.completed) / len(self.completed)

    def tpot_attainment(self, slo: SLO) -> float:
        if not self.completed:
            return float("nan")
        return sum(slo.tpot_met_by(r) for r in self.completed) / len(self.completed)

    def summary(self, slo: Optional[SLO] = None) -> dict:
        """One flat dict with the headline numbers (for harness tables)."""
        ttft, tpot = self.ttft_stats(), self.tpot_stats()
        out = {
            "completed": len(self.completed),
            "ttft_p50": ttft.p50,
            "ttft_p90": ttft.p90,
            "ttft_p99": ttft.p99,
            "tpot_p50": tpot.p50,
            "tpot_p90": tpot.p90,
            "tpot_p99": tpot.p99,
            "mean_decode_queue_delay": (
                float(np.mean(self.decode_queue_delays)) if self.decode_queue_delays else 0.0
            ),
            "swap_events": self.counters.get("swap_out", 0),
        }
        if slo is not None:
            out["slo_attainment"] = self.slo_attainment(slo)
            out["ttft_attainment"] = self.ttft_attainment(slo)
            out["tpot_attainment"] = self.tpot_attainment(slo)
        return out

    # -- per-tier accounting ---------------------------------------------------

    def shed_by_tier(self) -> dict[str, int]:
        """Shed-request counts keyed by SLO tier."""
        counts = Counter(r.tier for r in self.shed)
        return {tier: counts.get(tier, 0) for tier in TIERS}

    def tier_attainment(
        self, slos: Mapping[str, "SLO"], include_shed: bool = False
    ) -> dict[str, float]:
        """Per-tier SLO attainment, each tier judged against its own SLO.

        With ``include_shed`` the denominator covers every submitted request
        of the tier (a shed request certainly missed its SLO) — the honest
        attainment for degraded-mode runs.  NaN for tiers with no outcomes
        (matching :meth:`slo_attainment`).
        """
        out: dict[str, float] = {}
        for tier in TIERS:
            done = [r for r in self.completed if r.tier == tier]
            total = len(done)
            if include_shed:
                total += sum(1 for r in self.shed if r.tier == tier)
            slo = slos.get(tier)
            if not total or slo is None:
                out[tier] = float("nan")
                continue
            out[tier] = sum(slo.met_by(r) for r in done) / total
        return out

    # -- resilience ----------------------------------------------------------

    def detection_latencies(self) -> list[float]:
        """Crash -> declared-failed delay, per detected crash."""
        return self._fault_deltas("crash", "detect")

    def recovery_times(self) -> list[float]:
        """Crash -> recovered delay (downtime), per recovered crash."""
        return self._fault_deltas("crash", "recover")

    def _fault_deltas(self, start_kind: str, end_kind: str) -> list[float]:
        open_at: dict[str, float] = {}
        deltas: list[float] = []
        for event in self.fault_events:
            if event["kind"] == start_kind:
                open_at.setdefault(event["target"], event["time"])
            elif event["kind"] == end_kind and event["target"] in open_at:
                deltas.append(event["time"] - open_at.pop(event["target"]))
        return deltas

    def resilience_summary(self) -> dict:
        """Flat dict of fault/recovery accounting (all zero fault-free)."""
        detections = self.detection_latencies()
        recoveries = self.recovery_times()
        return {
            "instance_crashes": self.counters.get("instance_crash", 0),
            "requests_requeued": self.counters.get("crash_requeued", 0),
            "requests_requeued_by_tier": {
                tier: self.counters.get(f"crash_requeued[{tier}]", 0) for tier in TIERS
            },
            "requests_shed": len(self.shed),
            "requests_shed_by_tier": self.shed_by_tier(),
            "transfer_retries": self.counters.get("transfer_retries", 0),
            "transfers_failed": self.counters.get("transfer_failed", 0),
            "torn_handoffs": self.counters.get("torn_handoff", 0),
            "detection_latency_s": (
                float(np.mean(detections)) if detections else 0.0
            ),
            "downtime_s": float(np.sum(recoveries)) if recoveries else 0.0,
        }
