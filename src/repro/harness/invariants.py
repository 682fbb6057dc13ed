"""End-of-run invariants every serving run must keep.

Schedulers are free to produce different latencies, but any correct run —
a single system or a fleet, healthy or under injected faults — keeps the
same books: every submitted request either completes exactly once or is
explicitly shed, no tier or tenant loses or re-labels requests, no token
precedes its prefill, timestamps never run backwards, every KV allocation
(including pools retired by crashes and re-plans, and after the prefix
cache is drained) is freed exactly once, the prefix saved-tokens counter
matches the index ledger, nothing is left queued, failed or crashed, and
fair-share budgets were never exceeded at any sim instant.

:func:`check_run` applies the whole suite; each ``check_*`` returns a list
of human-readable violations (empty when clean).
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.kvcache.blocks import BlockLocation
from repro.serving.audit import audit_request
from repro.serving.request import TIERS, Phase, Request

_TIME_EPS = 1e-9


def systems_of(target) -> list:
    """The serving systems behind a run target (fleet members or itself)."""
    return list(getattr(target, "members", [target]))


def metrics_of(target):
    merged = getattr(target, "merged_metrics", None)
    return merged() if merged is not None else target.metrics


def check_conservation(
    submitted: Sequence[Request], completed: Sequence[Request], shed: Sequence[Request]
) -> list[str]:
    """Zero silent drops: submitted == completed + shed, with no overlap."""
    problems = []
    submitted_ids = {r.request_id for r in submitted}
    completed_ids = Counter(r.request_id for r in completed)
    shed_ids = {r.request_id for r in shed}
    duplicates = sorted(rid for rid, n in completed_ids.items() if n > 1)
    if duplicates:
        problems.append(f"requests completed more than once: {duplicates[:5]}")
    both = completed_ids.keys() & shed_ids
    if both:
        problems.append(f"requests both completed and shed: {sorted(both)[:5]}")
    accounted = completed_ids.keys() | shed_ids
    dropped = submitted_ids - accounted
    if dropped:
        problems.append(f"requests silently dropped: {sorted(dropped)[:5]}")
    phantom = accounted - submitted_ids
    if phantom:
        problems.append(f"phantom request ids never submitted: {sorted(phantom)[:5]}")
    for request in shed:
        if request.phase is not Phase.SHED:
            problems.append(f"request {request.request_id}: shed but phase={request.phase.value}")
    return problems


def _label_conservation(attr, labels, submitted, completed, shed) -> list[str]:
    problems = []
    label_of = {r.request_id: getattr(r, attr) for r in submitted}
    mutated = [
        r.request_id
        for r in list(completed) + list(shed)
        if r.request_id in label_of and getattr(r, attr) != label_of[r.request_id]
    ]
    if mutated:
        problems.append(f"requests changed {attr} in flight: {sorted(mutated)[:5]}")
    counts = {
        name: Counter(getattr(r, attr) for r in group)
        for name, group in (("submitted", submitted), ("completed", completed), ("shed", shed))
    }
    for label in labels:
        n_sub, n_done, n_shed = (counts[k][label] for k in ("submitted", "completed", "shed"))
        if n_sub != n_done + n_shed:
            problems.append(
                f"{attr} {label!r} lost requests: submitted {n_sub} != "
                f"completed {n_done} + shed {n_shed}"
            )
    return problems


def check_tier_conservation(submitted, completed, shed) -> list[str]:
    """Per-tier submitted == completed + shed, and no request changes tier."""
    return _label_conservation("tier", TIERS, submitted, completed, shed)


def check_tenant_conservation(submitted, completed, shed) -> list[str]:
    """Per-tenant submitted == completed + shed, and no request changes owner."""
    tenants = sorted({r.tenant for r in submitted})
    return _label_conservation("tenant", tenants, submitted, completed, shed)


def check_token_causality(completed: Sequence[Request]) -> list[str]:
    """No token is generated before its prefill completes."""
    problems = []
    for request in completed:
        rid = request.request_id
        if not request.prefill_done:
            problems.append(
                f"request {rid}: finished with incomplete prefill "
                f"({request.prefilled_tokens}/{request.prefill_required} tokens)"
            )
        if request.output_generated != request.output_tokens:
            problems.append(
                f"request {rid}: generated {request.output_generated} of "
                f"{request.output_tokens} tokens"
            )
        if (
            request.first_token_time is not None
            and request.prefill_start is not None
            and request.first_token_time < request.prefill_start - _TIME_EPS
        ):
            problems.append(
                f"request {rid}: first token at {request.first_token_time:.6f} "
                f"before prefill started at {request.prefill_start:.6f}"
            )
    return problems


def check_monotonic_times(completed: Sequence[Request]) -> list[str]:
    """Per-request lifecycle timestamps never run backwards."""
    problems = []
    for request in completed:
        rid = request.request_id
        chain = [
            (name, value)
            for name, value in (
                ("arrival", request.arrival_time),
                ("prefill_start", request.prefill_start),
                ("first_token", request.first_token_time),
                ("decode_start", request.decode_start),
                ("finish", request.finish_time),
            )
            if value is not None
        ]
        for (name_a, a), (name_b, b) in zip(chain, chain[1:]):
            if b < a - _TIME_EPS:
                problems.append(
                    f"request {rid}: {name_b} ({b:.6f}) precedes {name_a} ({a:.6f})"
                )
        if (
            request.decode_queue_enter is not None
            and request.decode_start is not None
            and request.decode_start < request.decode_queue_enter - _TIME_EPS
        ):
            problems.append(f"request {rid}: decode started before entering the decode queue")
    return problems


def check_requests(completed: Sequence[Request]) -> list[str]:
    """Per-request audit (:func:`~repro.serving.audit.audit_request`)."""
    return [problem for request in completed for problem in audit_request(request)]


def prefix_caches(target):
    """Every warm-prefix index behind a run target."""
    for system in systems_of(target):
        for instance in system.instances:
            cache = getattr(instance, "prefix_cache", None)
            if cache is not None:
                yield cache


def check_prefix_ledger(target, metrics) -> list[str]:
    """The prefill-tokens-saved counter equals what the prefix indexes
    actually served, token for token."""
    counter = metrics.counters.get("prefix_tokens_saved", 0)
    served = sum(cache.stats.tokens_served for cache in prefix_caches(target))
    if counter != served:
        return [f"prefix_tokens_saved counter ({counter}) != index ledger ({served})"]
    return []


def check_kv_lifecycle(system) -> list[str]:
    """Every KV allocation freed by the drain, on every manager including
    pools retired by crashes and re-plans, and no block a lane's clock
    charged left unsettled.  A leak is reported by request id.

    A still-warm prefix cache is deliberate residency, not a leak: it is
    drained here (idempotently) before the live-allocation check runs.
    """
    problems = []
    for cache in prefix_caches(system):
        cache.drain()
    for instance in system.instances:
        managers = [(instance.kv, "kv")] + [
            (kv, f"retired-kv#{i}") for i, kv in enumerate(instance.retired_kv)
        ]
        for kv, label in managers:
            live = sorted(a.request_id for loc in BlockLocation for a in kv.residents(loc))
            if live:
                problems.append(
                    f"{instance.name}/{label}: allocations never freed for "
                    f"{len(live)} rid(s) {live[:5]}"
                )
            if kv.used_gpu_blocks != 0:
                problems.append(
                    f"{instance.name}/{label}: {kv.used_gpu_blocks} GPU KV blocks leaked"
                )
            if kv.charged != 0:
                problems.append(
                    f"{instance.name}/{label}: {kv.charged} charged KV blocks never settled"
                )
    return problems


def check_drained(system) -> list[str]:
    """Nothing is left queued, running, swapped, busy or failed."""
    problems = []
    for instance in system.instances:
        name = instance.name
        if instance.failed:
            problems.append(f"{name}: still failed after the drain")
        if instance.waiting:
            problems.append(f"{name}: {len(instance.waiting)} requests stuck waiting")
        if instance.total_running:
            problems.append(f"{name}: {instance.total_running} requests stuck running")
        if instance.swapped:
            problems.append(f"{name}: {len(instance.swapped)} requests stuck swapped")
        if any(lane.busy for lane in instance.lanes):
            problems.append(f"{name}: lane still busy after the drain")
    if system.known_failed:
        problems.append(f"failure knowledge never cleared: {sorted(system.known_failed)}")
    return problems


def check_fleet_recovered(target) -> list[str]:
    """Every crashed fleet member rejoined and was un-declared."""
    problems = []
    if getattr(target, "crashed", None):
        problems.append(f"members still crashed after the drain: {sorted(target.crashed)}")
    if getattr(target, "failed", None):
        problems.append(f"member failure knowledge never cleared: {sorted(target.failed)}")
    return problems


def check_budget_watermarks(system, config) -> list[str]:
    """The fair-share in-flight budget is never exceeded at any sim instant,
    per the peak counters each system keeps."""
    problems = []
    budget = config.max_inflight
    for key, peak in sorted(system.metrics.counters.items()):
        if budget and key.startswith("tenant_peak_inflight[") and peak > budget:
            problems.append(f"{key} = {peak} exceeds budget {budget}")
    return problems


def check_run(target, submitted: Sequence[Request], fairshare=None) -> list[str]:
    """The whole suite for one drained run target (a system or a fleet)."""
    metrics = metrics_of(target)
    completed, shed = metrics.completed, metrics.shed
    problems = check_conservation(submitted, completed, shed)
    problems += check_tier_conservation(submitted, completed, shed)
    problems += check_tenant_conservation(submitted, completed, shed)
    problems += check_token_causality(completed)
    problems += check_monotonic_times(completed)
    problems += check_requests(completed)
    problems += check_prefix_ledger(target, metrics)
    for system in systems_of(target):
        where = "" if system is target else f"{system.name}/"
        problems += [where + p for p in check_kv_lifecycle(system) + check_drained(system)]
        if fairshare is not None:
            problems += check_budget_watermarks(system, fairshare)
    problems += check_fleet_recovered(target)
    return problems
