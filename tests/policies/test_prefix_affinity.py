"""Tests for the KV-locality-aware ``prefix-affinity`` routing policy.

The router is a pure estimator (per-member LRU sets of warm prefix
hashes), so its decision logic is unit-testable against stub members; the
end-to-end properties — warm-hit requests beating cold ones on TTFT, and
affinity beating locality-blind routing overall — run through the
comparison harness on a real WindServe fleet.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.policies import ROUTING_POLICIES
from repro.policies.routing import PrefixAffinityRouting
from repro.serving.request import Request


def _member(load: int) -> SimpleNamespace:
    return SimpleNamespace(
        submitted=load, metrics=SimpleNamespace(completed=[], shed=[])
    )


def _fleet(*loads: int) -> SimpleNamespace:
    return SimpleNamespace(members=[_member(load) for load in loads])


def _req(rid: int, prefix_hash: int = 0, prefix_len: int = 0) -> Request:
    return Request(
        request_id=rid,
        prompt_tokens=512,
        output_tokens=8,
        arrival_time=0.0,
        prefix_hash=prefix_hash,
        prefix_len=prefix_len,
    )


def _warm_prefixes(policy, index):
    """The prefix hashes ``policy`` believes warm on member ``index``."""
    return tuple(policy._warm.get(index, ()))


def test_registered():
    assert "prefix-affinity" in ROUTING_POLICIES.names()
    assert isinstance(ROUTING_POLICIES.create("prefix-affinity"), PrefixAffinityRouting)


def test_routes_to_warm_member_despite_higher_load():
    policy = PrefixAffinityRouting()
    fleet = _fleet(9, 0, 0)
    policy.observe_completion(fleet, 0, _req(1, prefix_hash=42, prefix_len=128))
    # Member 0 is the most loaded, but it is the only warm one.
    assert policy.select(fleet, [0, 1, 2], _req(2, prefix_hash=42, prefix_len=128)) == 0


def test_cold_prefix_falls_back_to_least_loaded_and_marks_warm():
    policy = PrefixAffinityRouting()
    fleet = _fleet(5, 2, 7)
    request = _req(1, prefix_hash=42, prefix_len=128)
    choice = policy.select(fleet, [0, 1, 2], request)
    assert choice == 1  # least loaded
    # The choice is optimistically marked warm: it is about to compute and
    # publish the prefix, so the next arrival for hash 42 sticks to it.
    assert 42 in _warm_prefixes(policy, 1)
    assert policy.select(fleet, [0, 1, 2], _req(2, prefix_hash=42, prefix_len=128)) == 1


def test_no_prefix_request_is_plain_least_loaded():
    policy = PrefixAffinityRouting()
    fleet = _fleet(3, 1, 2)
    assert policy.select(fleet, [0, 1, 2], _req(1)) == 1
    assert _warm_prefixes(policy, 1) == ()  # nothing to remember


def test_warm_member_ties_break_by_load():
    policy = PrefixAffinityRouting()
    fleet = _fleet(6, 4, 0)
    for member in (0, 1):
        policy.observe_completion(fleet, member, _req(1, prefix_hash=7, prefix_len=64))
    assert policy.select(fleet, [0, 1, 2], _req(2, prefix_hash=7, prefix_len=64)) == 1


def test_failure_forgets_the_crashed_members_warm_set():
    policy = PrefixAffinityRouting()
    fleet = _fleet(9, 0)
    policy.observe_completion(fleet, 0, _req(1, prefix_hash=42, prefix_len=128))
    policy.observe_failure(fleet, 0)
    assert _warm_prefixes(policy, 0) == ()
    # With the warm member forgotten, routing degrades to least-loaded.
    assert policy.select(fleet, [0, 1], _req(2, prefix_hash=42, prefix_len=128)) == 1


def test_candidate_filter_excludes_dead_warm_member():
    """A warm member absent from candidates (declared dead) is never picked."""
    policy = PrefixAffinityRouting()
    fleet = _fleet(9, 0)
    policy.observe_completion(fleet, 0, _req(1, prefix_hash=42, prefix_len=128))
    assert policy.select(fleet, [1], _req(2, prefix_hash=42, prefix_len=128)) == 1


def test_warm_set_is_lru_bounded():
    policy = PrefixAffinityRouting()
    fleet = _fleet(0)
    for prefix_hash in range(1, policy.WARM_CAPACITY + 2):
        policy.observe_completion(fleet, 0, _req(1, prefix_hash, prefix_len=64))
    warm = _warm_prefixes(policy, 0)
    assert len(warm) == policy.WARM_CAPACITY
    assert 1 not in warm  # the oldest was forgotten
    assert policy.WARM_CAPACITY + 1 in warm


def test_warm_hit_beats_cold_ttft_end_to_end():
    """On a real affinity-routed fleet, prefix-hit requests see lower TTFT
    than cold shared-prefix requests (the shortened prefill is visible)."""
    from dataclasses import replace

    from repro.harness.claims import compare_runs
    from repro.harness.experiments import PREFIX_BASE, prefix_fields

    cell = replace(PREFIX_BASE, num_requests=120, fleet_policy="prefix-affinity")
    (row,) = compare_runs({"prefix-affinity": cell}, prefix_fields)  # raises on a violation
    assert row["warm_requests"] > 0 and row["cold_requests"] > 0
    assert row["warm_ttft"] < row["cold_ttft"]
