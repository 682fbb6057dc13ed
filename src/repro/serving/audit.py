"""Per-request consistency auditing.

``audit_request`` checks what every finished request must satisfy —
timestamp ordering, token accounting, non-negative latencies — and returns
a list of human-readable violations (empty when clean).  The whole-run
suite, :func:`repro.harness.invariants.check_run`, applies it to every
completed request alongside the conservation, KV-leak and drained-queue
checks.
"""

from __future__ import annotations

from repro.serving.request import Request


def audit_request(request: Request) -> list[str]:
    """Invariant violations for one supposedly finished request."""
    problems: list[str] = []
    rid = request.request_id

    if not request.finished:
        problems.append(f"request {rid}: not finished (phase={request.phase.value})")
        return problems
    if request.first_token_time is None or request.finish_time is None:
        problems.append(f"request {rid}: finished without timestamps")
        return problems

    if request.output_generated != request.output_tokens:
        problems.append(
            f"request {rid}: generated {request.output_generated} of "
            f"{request.output_tokens} tokens"
        )
    if request.prefilled_tokens < request.prompt_tokens and request.recompute_count == 0:
        problems.append(
            f"request {rid}: prefilled only {request.prefilled_tokens} of "
            f"{request.prompt_tokens} prompt tokens"
        )

    # Timestamp ordering: arrival <= prefill start <= first token <= finish.
    order = [("arrival", request.arrival_time)]
    if request.prefill_start is not None:
        order.append(("prefill_start", request.prefill_start))
    order.append(("first_token", request.first_token_time))
    order.append(("finish", request.finish_time))
    for (name_a, a), (name_b, b) in zip(order, order[1:]):
        if b < a - 1e-9:
            problems.append(f"request {rid}: {name_b} ({b:.6f}) before {name_a} ({a:.6f})")

    if request.ttft is not None and request.ttft < 0:
        problems.append(f"request {rid}: negative TTFT")
    if request.tpot is not None and request.tpot < 0:
        problems.append(f"request {rid}: negative TPOT")
    if request.decode_queue_delay is not None and request.decode_queue_delay < -1e-9:
        problems.append(f"request {rid}: negative decode queue delay")
    return problems
