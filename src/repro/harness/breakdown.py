"""Per-request latency decomposition.

Splits every completed request's end-to-end latency into the pipeline
stages the paper reasons about:

* ``prefill_queue`` — arrival until its prefill starts executing;
* ``prefill_exec`` — prefill execution until the first token;
* ``handoff`` — first token until its first decode iteration (KV
  transfer + decode queuing; zero for dispatched prefills);
* ``decode`` — first decode iteration until completion.

Aggregating these across systems shows *where* WindServe's improvements
come from: dispatch removes ``prefill_queue``, the async transfer removes
``handoff``, rescheduling removes decode-side stalls.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.serving.metrics import LatencyStats
from repro.serving.request import Request

COMPONENTS = ("prefill_queue", "prefill_exec", "handoff", "decode")


def request_breakdown(request: Request) -> Optional[dict[str, float]]:
    """Stage durations for one finished request (None if unfinished)."""
    if (
        not request.finished
        or request.first_token_time is None
        or request.finish_time is None
    ):
        return None
    prefill_start = (
        request.prefill_start if request.prefill_start is not None else request.arrival_time
    )
    decode_start = request.decode_start
    if decode_start is None:  # single-token outputs never decode
        decode_start = request.finish_time
    return {
        "prefill_queue": max(0.0, prefill_start - request.arrival_time),
        "prefill_exec": max(0.0, request.first_token_time - prefill_start),
        "handoff": max(0.0, decode_start - request.first_token_time),
        "decode": max(0.0, request.finish_time - decode_start),
    }


def aggregate_breakdown(requests: Iterable[Request]) -> dict[str, LatencyStats]:
    """Per-component latency statistics over a set of finished requests."""
    series: dict[str, list[float]] = {c: [] for c in COMPONENTS}
    for request in requests:
        parts = request_breakdown(request)
        if parts is None:
            continue
        for component, value in parts.items():
            series[component].append(value)
    return {c: LatencyStats.from_values(v) for c, v in series.items()}


def breakdown_rows(
    requests: Iterable[Request], label: Optional[str] = None
) -> list[dict]:
    """Flat table rows (mean/p50/p99 per component) for reports."""
    rows = []
    for component, stats in aggregate_breakdown(requests).items():
        row = {
            "component": component,
            "mean (s)": stats.mean,
            "p50 (s)": stats.p50,
            "p99 (s)": stats.p99,
        }
        if label is not None:
            row = {"system": label, **row}
        rows.append(row)
    return rows
