"""What one decode iteration gives whom.

An iteration applies to the batch that was formed when it launched, in
admission order:

* a request that joins a lane after the lane's batch formed gets no token
  from that batch (a WindServe assist completion, a vLLM prefill
  completion, a swap-in);
* under KV pressure a member at a block boundary may preempt a victim of
  the same lane; a victim later in admission order has not had its token
  yet and gets none, an earlier one keeps it, and its swap-out bytes are
  its cached tokens at that moment times the per-token KV size;
* a member whose last token frees its blocks hands them to a later
  boundary member of the same iteration, and a finish hook that takes
  blocks from the same pool sees the free count the admission-order walk
  left at that member;
* two members crossing a block boundary at the same step with the pool
  one block short take their blocks in admission order, the second
  preempting;
* a late joiner whose first block boundary lies one block ahead takes no
  block from the batch it missed, and takes its block at that boundary;
* a batch member that leaves its lane and comes back before the batch
  completes is still that batch's member.

Every scenario runs down both ways a lane advances: per token
(``_decode_run`` patched out, so each batch completion is one simulator
event), and folded in its ``*Folded`` twin (consecutive plain decode
iterations inside one event's frame, in a decode run; every other batch
is scheduled).  An inline iteration counts as a
simulator event, so the state after the same number of events is the same
on both paths; the block-boundary scenarios put their boundary on the
second iteration, which the folded path runs inside its decode run.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines.vllm import VLLMInstance
from repro.harness.cell import clone_requests
from repro.harness.golden import GOLDEN_MATRIX
from repro.serving.instance import Instance, Lane
from repro.serving.request import Phase
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog
from tests.serving.test_instance import decode_ready_request, make_instance

_BY_NAME = {cell.name: cell for cell in GOLDEN_MATRIX}


class DecodePath:
    """The decode path a test runs down, and the iterations it folded."""

    def __init__(self, folded: bool) -> None:
        self.folded = folded
        self.inline = 0

    def engaged(self) -> bool:
        """Per token, or folded with at least one iteration run inline."""
        return not self.folded or self.inline > 0


@pytest.fixture
def path(request, monkeypatch) -> DecodePath:
    """Per token, unless the test's class sets ``FOLDED``."""
    decode = DecodePath(getattr(request.cls, "FOLDED", False))
    if not decode.folded:
        monkeypatch.setattr(Instance, "_decode_run", lambda self, lane: None)
        return decode
    advance = Simulator.advance_inline

    def advance_inline(sim, duration):
        decode.inline += 1
        advance(sim, duration)

    monkeypatch.setattr(Simulator, "advance_inline", advance_inline)
    return decode


def _loaded(name: str, **changes):
    """The pin's serving system, its workload loaded but not yet run."""
    cell = replace(_BY_NAME[name], **changes)
    system = cell.build()
    requests = clone_requests(cell.workload(cell.gpus(system)).rows)
    system.load_workload(requests)
    return system, requests


def _late_joins(system, joins, monkeypatch) -> int:
    """Run ``system`` to the end.

    Every request ``joins`` picks that enters a lane while a batch formed
    without it runs there must leave that batch's completion with the
    token count it joined with.  Returns how many such joins completed.
    """
    watching: dict[int, tuple] = {}  # id(batch) -> (batch, [(request, tokens)])
    checked = []
    add = Lane.add
    finish = Instance.finish_decode_iteration

    def lane_add(lane, request):
        add(lane, request)
        batch = lane.current_batch
        if (
            batch is not None
            and batch.decode_requests
            and request not in batch.decode_requests
            and joins(request)
        ):
            watching.setdefault(id(batch), (batch, []))[1].append(
                (request, request.output_generated)
            )

    def finish_decode_iteration(instance, lane, batch):
        finish(instance, lane, batch)
        _, joined = watching.pop(id(batch), (batch, ()))
        lane.sync()
        for request, tokens in joined:
            assert request.output_generated == tokens, request.request_id
            checked.append(request)

    monkeypatch.setattr(Lane, "add", lane_add)
    monkeypatch.setattr(Instance, "finish_decode_iteration", finish_decode_iteration)
    system.sim.run_until_idle()
    return len(checked)


class TestLateJoiners:
    def test_assist_completion_waits_for_the_next_batch(self, path, monkeypatch):
        system, requests = _loaded("windserve-poisson-r3-s0", num_requests=60)
        checked = _late_joins(system, lambda r: r.dispatched_prefill, monkeypatch)
        assert checked > 0
        assert all(r.finished for r in requests)
        assert path.engaged()

    def test_swap_in_waits_for_the_next_batch(self, path, monkeypatch):
        system, requests = _loaded("distserve-pressure-r3.5-s3")
        checked = _late_joins(system, lambda r: r.swap_out_count > 0, monkeypatch)
        assert checked > 0
        assert all(r.finished for r in requests)
        assert path.engaged()

    def test_vllm_prefill_completion_gets_no_token_from_its_batch(self, path, monkeypatch):
        system, requests = _loaded("vllm-poisson-r3-s0")
        shared = []
        complete = VLLMInstance._on_batch_complete

        def on_batch_complete(instance, lane, batch):
            lane.sync()
            before = {r: r.output_generated for r in batch.decode_requests if r in lane}
            complete(instance, lane, batch)
            lane.sync()
            for request in batch.prefill_requests:
                if request not in lane or request.first_token_time != instance.sim.now:
                    continue
                # Its last prefill chunk finished in this batch: the first
                # token came from prefill, none from the decode half of the
                # same batch.
                assert request.output_generated == 1, request.request_id
                if any(r.output_generated == g + 1 for r, g in before.items()):
                    shared.append(request)

        monkeypatch.setattr(VLLMInstance, "_on_batch_complete", on_batch_complete)
        system.sim.run_until_idle()
        assert shared  # some completions shared a batch with decodes
        assert all(r.finished for r in requests)
        assert path.engaged()


class TestLateJoinersFolded(TestLateJoiners):
    FOLDED = True


def _pressured(first, second):
    """A 5-block pool holding ``first`` then ``second`` in one lane, both
    in the same first batch."""
    inst, sim = make_instance(kv_tokens=80)
    inst.trace = TraceLog(enabled=True)
    for r in (first, second):
        inst.kv.allocate(r.request_id, r.context_tokens)
        inst.waiting.append(r)
    inst.kick()
    (lane,) = inst.lanes
    assert lane.running == [first, second]
    assert inst.kv.free_gpu_blocks == 0
    return inst, sim


def _swap_out_bytes(inst, request) -> int:
    (row,) = [
        row
        for row in inst.trace.to_rows()
        if row["g"] == "swap-out" and row["p"]["request_id"] == request.request_id
    ]
    return row["p"]["nbytes"]


class TestBoundaryPreemption:
    """``boundary`` (31 cached tokens) fills its second block with its
    first token and needs a fifth block, with none free, for its second;
    ``victim`` arrived last, so the latest-arrived policy evicts it (40
    cached tokens, three blocks with room to spare)."""

    @staticmethod
    def _pair():
        boundary = decode_ready_request(1, prompt=30, output=10)
        victim = decode_ready_request(2, prompt=39, output=10)
        victim.arrival_time = 1.0
        return boundary, victim

    def test_later_victim_gets_no_token(self, path):
        boundary, victim = self._pair()
        inst, sim = _pressured(boundary, victim)
        sim.run(max_events=2)
        assert victim.phase is Phase.SWAPPED
        assert victim.output_generated == 2
        assert inst.kv.tokens_of(victim.request_id) == 41
        assert _swap_out_bytes(inst, victim) == int(41 * inst.kv.bytes_per_token)
        assert boundary.output_generated == 3
        assert inst.kv.tokens_of(boundary.request_id) == 33
        assert path.inline == (1 if path.folded else 0)

    def test_earlier_victim_keeps_its_token(self, path):
        boundary, victim = self._pair()
        inst, sim = _pressured(victim, boundary)
        sim.run(max_events=2)
        assert victim.phase is Phase.SWAPPED
        assert victim.output_generated == 3
        assert inst.kv.tokens_of(victim.request_id) == 42
        assert _swap_out_bytes(inst, victim) == int(42 * inst.kv.bytes_per_token)
        assert boundary.output_generated == 3
        assert inst.kv.tokens_of(boundary.request_id) == 33
        assert path.inline == (1 if path.folded else 0)


class TestBoundaryPreemptionFolded(TestBoundaryPreemption):
    FOLDED = True


class TestRetireHandsBlocksOn:
    """``last`` (21 cached tokens, two blocks) takes its final token on the
    second iteration, when ``boundary`` (31 cached tokens) needs a block of
    a full 4-block pool."""

    @staticmethod
    def _run(first, second, path):
        inst, sim = make_instance(kv_tokens=64)
        for r in (first, second):
            inst.kv.allocate(r.request_id, r.context_tokens)
            inst.waiting.append(r)
        inst.kick()
        assert inst.kv.free_gpu_blocks == 0
        sim.run(max_events=2)
        assert path.inline == (1 if path.folded else 0)
        return inst

    def test_freed_blocks_reach_a_later_boundary_member(self, path):
        last = decode_ready_request(1, prompt=20, output=3)
        boundary = decode_ready_request(2, prompt=30, output=10)
        inst = self._run(last, boundary, path)
        assert last.finished
        assert inst.metrics.counters.get("swap_out", 0) == 0
        assert boundary.output_generated == 3
        assert inst.kv.tokens_of(boundary.request_id) == 33

    def test_an_earlier_boundary_member_preempts_instead(self, path):
        last = decode_ready_request(1, prompt=20, output=3)
        last.arrival_time = 1.0
        boundary = decode_ready_request(2, prompt=30, output=10)
        inst = self._run(boundary, last, path)
        assert last.phase is Phase.SWAPPED and not last.finished
        assert inst.metrics.counters["swap_out"] == 1
        assert boundary.output_generated == 3


class TestRetireHandsBlocksOnFolded(TestRetireHandsBlocksOn):
    FOLDED = True


def test_member_that_leaves_and_rejoins_keeps_its_batch_token(path):
    """Swapped out and back in while its batch runs: still that batch's
    member, so it gets the batch's token like the member beside it."""
    inst, sim = make_instance()
    away = decode_ready_request(1, output=10)
    stays = decode_ready_request(2, output=10)
    for r in (away, stays):
        inst.kv.allocate(r.request_id, r.context_tokens)
        inst.waiting.append(r)
    inst.kick()
    (lane,) = inst.lanes
    inst._swap_out(away)
    inst.swapped.remove(away)
    inst.kv.swap_in(away.request_id)
    inst._swap_in_done(away)
    assert lane.running == [stays, away] and lane.busy
    sim.run(until=lane.busy_until)
    assert stays.output_generated == 2
    assert away.output_generated == 2
    assert inst.kv.tokens_of(away.request_id) == away.context_tokens
    # The rest of their decode (one run on the folded path) finishes both.
    sim.run()
    assert stays.finished and away.finished
    assert path.engaged()


class TestLeaveAndRejoinFolded:
    FOLDED = True

    def test_member_that_leaves_and_rejoins_keeps_its_batch_token(self, path):
        test_member_that_leaves_and_rejoins_keeps_its_batch_token(path)


def _lane_of(kv_tokens, *requests):
    """One lane holding ``requests``, in order, all in its first batch."""
    inst, sim = make_instance(kv_tokens=kv_tokens)
    for r in requests:
        inst.kv.allocate(r.request_id, r.context_tokens)
        inst.waiting.append(r)
    inst.kick()
    (lane,) = inst.lanes
    assert lane.running == list(requests)
    return inst, sim


class TestSamePhaseBoundariesOneBlockShort:
    """``first`` and ``second`` (31 cached tokens each) both need a third
    block on the second iteration, with one block of a 7-block pool free;
    ``bystander`` (21 cached tokens, room to spare) arrived last, so the
    latest-arrived policy evicts it when ``second`` finds the pool empty."""

    @staticmethod
    def _trio():
        first = decode_ready_request(1, prompt=30, output=10)
        second = decode_ready_request(2, prompt=30, output=10)
        bystander = decode_ready_request(3, prompt=20, output=10)
        bystander.arrival_time = 1.0
        return first, second, bystander

    @staticmethod
    def _check_boundary_members(inst, first, second):
        for r in (first, second):
            assert r.output_generated == 3
            assert inst.kv.tokens_of(r.request_id) == 33
            assert inst.kv.get(r.request_id).blocks == 3
        assert inst.metrics.counters["swap_out"] == 1
        assert inst.kv.free_gpu_blocks == 1

    def test_the_second_preempts_a_later_bystander(self, path):
        first, second, bystander = self._trio()
        inst, sim = _lane_of(112, first, second, bystander)
        assert inst.kv.free_gpu_blocks == 1
        sim.run(max_events=2)
        assert bystander.phase is Phase.SWAPPED
        assert bystander.output_generated == 2
        assert inst.kv.tokens_of(bystander.request_id) == 22
        self._check_boundary_members(inst, first, second)
        assert path.inline == (1 if path.folded else 0)

    def test_an_earlier_bystander_keeps_its_token(self, path):
        first, second, bystander = self._trio()
        inst, sim = _lane_of(112, bystander, first, second)
        sim.run(max_events=2)
        assert bystander.phase is Phase.SWAPPED
        assert bystander.output_generated == 3
        assert inst.kv.tokens_of(bystander.request_id) == 23
        self._check_boundary_members(inst, first, second)
        assert path.inline == (1 if path.folded else 0)


class TestSamePhaseBoundariesOneBlockShortFolded(TestSamePhaseBoundariesOneBlockShort):
    FOLDED = True


class TestRetireBetweenBoundaries:
    """``early`` and ``late`` (31 cached tokens each) need a block on the
    second iteration; ``last`` (21 cached tokens, two blocks) sits between
    them in admission order and takes its final token then.  Its finish
    hook takes every free block of the 8-block pool, as a hand-off into
    the same pool does, so ``late`` then preempts ``early``."""

    def test_finish_hook_sees_the_walk_order_free_count(self, path):
        early = decode_ready_request(1, prompt=30, output=10)
        last = decode_ready_request(2, prompt=20, output=3)
        late = decode_ready_request(3, prompt=30, output=10)
        inst, sim = _lane_of(128, early, last, late)
        assert inst.kv.free_gpu_blocks == 2
        seen = []
        retire = inst._retire

        def retire_then_hand_off(request, now):
            retire(request, now)
            seen.append(inst.kv.free_gpu_blocks)
            inst.kv.allocate(99, inst.kv.free_gpu_tokens)

        inst._retire = retire_then_hand_off
        sim.run(max_events=2)
        # ``early`` took its block first; ``last`` gave back two.
        assert seen == [3]
        assert last.finished
        assert early.phase is Phase.SWAPPED
        assert early.output_generated == 3
        assert inst.kv.tokens_of(early.request_id) == 33
        assert late.output_generated == 3
        assert inst.kv.tokens_of(late.request_id) == 33
        assert inst.metrics.counters["swap_out"] == 1
        assert inst.kv.free_gpu_blocks == 2
        assert path.inline == (1 if path.folded else 0)


class TestRetireBetweenBoundariesFolded(TestRetireBetweenBoundaries):
    FOLDED = True


class TestVictimAheadOfALaterRetirement:
    """``boundary`` (31 cached tokens) needs a block of a full 6-block pool
    on the second iteration, where ``victim`` and ``last`` (21 cached
    tokens each, behind it in admission order) take their final tokens.
    ``victim`` arrived last, so ``boundary`` evicts it; ``last`` then
    retires, ``boundary`` gets exactly one block, and the two blocks
    ``victim`` needs back are free for its swap-in."""

    def test_the_boundary_member_takes_one_block(self, path):
        boundary = decode_ready_request(1, prompt=30, output=10)
        victim = decode_ready_request(2, prompt=20, output=3)
        victim.arrival_time = 2.0
        last = decode_ready_request(3, prompt=20, output=3)
        last.arrival_time = 1.0
        inst, sim = _lane_of(96, boundary, victim, last)
        assert inst.kv.free_gpu_blocks == 0
        sim.run(max_events=2)
        assert victim.phase is Phase.SWAPPED
        assert victim.output_generated == 2
        assert last.finished
        assert boundary.output_generated == 3
        assert inst.kv.tokens_of(boundary.request_id) == 33
        assert inst.kv.get(boundary.request_id).blocks == 3
        assert inst.metrics.counters["swap_in"] == 1
        assert inst.kv.free_gpu_blocks == 1
        assert path.inline == (1 if path.folded else 0)


class TestVictimAheadOfALaterRetirementFolded(TestVictimAheadOfALaterRetirement):
    FOLDED = True


class TestLateJoinerOneBlockAhead:
    """``joiner`` (17 cached tokens: two blocks, 15 free slots) joins while
    the lane's first batch runs, so its first boundary lies exactly one
    block of iterations after the batch it missed."""

    def test_takes_its_block_at_its_boundary_only(self, path):
        inst, sim = make_instance()
        stays = decode_ready_request(1, output=40)  # 101 cached tokens
        inst.kv.allocate(1, stays.context_tokens)
        inst.waiting.append(stays)
        inst.kick()
        (lane,) = inst.lanes
        joiner = decode_ready_request(2, prompt=16, output=30)
        inst.kv.allocate(2, joiner.context_tokens)
        inst.start_decoding(joiner)
        free = inst.kv.free_gpu_blocks
        sim.run(until=lane.busy_until)
        assert joiner.output_generated == 1
        assert inst.kv.get(2).blocks == 2
        assert inst.kv.free_gpu_blocks == free
        # Fifteen iterations fill its free slots; ``stays`` crosses once.
        sim.run(max_events=15)
        assert joiner.output_generated == 16
        assert inst.kv.tokens_of(2) == 32
        assert inst.kv.get(2).blocks == 2
        assert inst.kv.free_gpu_blocks == free - 1
        # The next one starts its third block.
        sim.run(max_events=1)
        assert joiner.output_generated == 17
        assert inst.kv.tokens_of(2) == 33
        assert inst.kv.get(2).blocks == 3
        assert inst.kv.free_gpu_blocks == free - 2
        assert path.engaged()


class TestLateJoinerOneBlockAheadFolded(TestLateJoinerOneBlockAhead):
    FOLDED = True
