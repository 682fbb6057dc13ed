"""A standalone lane against a per-token reference lane.

:class:`~repro.serving.instance.Lane` gives decode tokens and KV blocks
out lazily: members advance on the lane's step clock, block boundaries are
charged by phase class, and only due members are walked.  The reference
here, :class:`TokenLane`, does none of that: each step walks every member
of the batch in flight in admission order, appends its token, takes a
block at each boundary through the grow policy, and retires it after its
last token.

Hypothesis drives both through the same random sequence of member
arrivals and departures, batch launches and steps (a step applied both
ways a lane advances: the scheduled walk, ``apply_step``, and a decode
run's O(1) ``advance`` first), joins and bounces while a batch is in
flight, syncs, and blocks taken from or given back to the pool, which
forces short charges and preemptions.  After every rule the running order,
``context_tokens``, the pool's used blocks and the log of preemptions,
retirements and removals (with each request's counters at that moment)
must match; after a sync, each member's tokens and blocks too, and nothing
may stay charged.
"""

from __future__ import annotations

from typing import Optional

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.kvcache.blocks import KVBlockManager
from repro.serving.batching import Batch
from repro.serving.instance import Lane
from repro.serving.request import Request
from tests.conftest import search_depth

CAPACITY = 40  # blocks
TAKEN = 1_000_000  # request ids from here on hold blocks outside the lane


def latest(running: list, exclude):
    """The preemption victim: the latest-admitted other member, if any."""
    return next((member for member in reversed(running) if member != exclude), None)


class _Token:
    """A member of the reference lane: its counters are always exact."""

    __slots__ = ("key", "prompt", "generated", "output", "tokens")

    def __init__(self, prompt: int, output: int) -> None:
        self.key = -1  # set when it joins a lane
        self.prompt, self.output = prompt, output
        self.generated = 1  # the first token came from prefill
        self.tokens = prompt + 1


class TokenLane:
    """The per-token reference lane over a plain block count."""

    def __init__(self, block: int) -> None:
        self.block = block
        self.members: dict[int, _Token] = {}
        self.running: list[int] = []  # request ids, in the lane's order
        self.taken = 0  # blocks held outside the lane
        self.next_key = 0
        self.batch: Optional[set[int]] = None  # members the batch in flight is over
        self.left: dict[int, int] = {}  # batch members gone mid-flight: their keys
        self.log: list = []  # (why, grower, request id, generated, tokens)

    def used(self) -> int:
        return self.taken + sum(-(-m.tokens // self.block) for m in self.members.values())

    def context(self) -> int:
        return sum(m.prompt + m.generated for m in self.members.values())

    def add(self, rid: int, member: _Token) -> None:
        key = self.left.pop(rid, None)
        if key is None:
            key, self.next_key = self.next_key, self.next_key + 1
        member.key = key
        self.members[rid] = member
        self.running.append(rid)

    def remove(self, rid: int, why: Optional[str] = None, grower: Optional[int] = None):
        member = self.members.pop(rid)
        self.running.remove(rid)
        if self.batch is not None and rid in self.batch:
            self.left[rid] = member.key
        if why is not None:
            self.log.append((why, grower, rid, member.generated, member.tokens))
        return member

    def launch(self) -> None:
        self.batch = set(self.members)

    def apply(self) -> None:
        batch, self.batch = self.batch, None
        walk = sorted(batch & self.members.keys(), key=lambda rid: self.members[rid].key)
        for rid in walk:
            member = self.members.get(rid)
            if member is None:
                continue  # preempted by a member ahead of it
            if member.tokens % self.block == 0 and not self.grow(rid):
                continue
            member.tokens += 1
            member.generated += 1
            if member.generated >= member.output:
                self.remove(rid, "retire")
        self.left.clear()

    def grow(self, rid: int) -> bool:
        while self.used() >= CAPACITY:
            victim = latest(self.running, rid)
            self.remove(rid if victim is None else victim, "preempt", rid)
            if victim is None:
                return False
        return True


class LaneMachine(RuleBasedStateMachine):
    @initialize(block=st.sampled_from((2, 3, 4)))
    def build(self, block):
        self.block = block
        self.kv = KVBlockManager(CAPACITY * block, 0, block, 1.0)
        self.lane = Lane(0, self.kv)
        self.log: list = []
        self.model = TokenLane(block)
        self.requests: dict[int, Request] = {}
        self.next_id = 0
        self.taken: list[int] = []

    # -- the lane's side of the grow policy and departures ---------------------

    def _leave(self, request: Request, why: str, grower: Optional[int] = None) -> None:
        rid = request.request_id
        self.log.append((why, grower, rid, request.output_generated, self.kv.tokens_of(rid)))
        self.kv.free(rid)
        del self.requests[rid]

    def _grow(self, request: Request) -> bool:
        """``Instance._grow_kv`` with recompute preemption of the latest member."""
        rid = request.request_id
        while not self.kv.can_extend(rid, 1):
            victim = latest(self.lane.running, request) or request
            self.lane.remove(victim)
            self._leave(victim, "preempt", rid)
            if victim is request:
                return False
        self.kv.extend(rid, 1)
        return True

    def _pick(self, data) -> Request:
        return data.draw(st.sampled_from(self.lane.running))

    # -- rules -------------------------------------------------------------------

    @rule(prompt=st.integers(1, 12), output=st.integers(2, 24))
    def add(self, prompt, output):
        """A member arrives, or joins while a batch is in flight."""
        if not self.kv.can_allocate(prompt + 1):
            return
        rid, self.next_id = self.next_id, self.next_id + 1
        request = Request(rid, prompt_tokens=prompt, output_tokens=output, arrival_time=0.0)
        request.output_generated = 1
        self.kv.allocate(rid, request.context_tokens)
        self.requests[rid] = request
        self.lane.add(request)
        self.model.add(rid, _Token(prompt, output))

    @precondition(lambda self: self.lane.running)
    @rule(data=st.data())
    def remove(self, data):
        request = self._pick(data)
        self.lane.remove(request)
        self._leave(request, "remove")
        self.model.remove(request.request_id, "remove")

    @precondition(lambda self: self.lane.running)
    @rule(data=st.data())
    def bounce(self, data):
        """A member leaves and comes back (keeping its KV), maybe mid-flight."""
        request = self._pick(data)
        self.lane.remove(request)
        self.lane.add(request)
        self.model.add(request.request_id, self.model.remove(request.request_id))

    @precondition(lambda self: not self.lane.busy)
    @rule()
    def launch(self):
        self.lane.launch(Batch("decode", 0.0, decode_requests=list(self.lane.running)), 0.0)
        self.model.launch()

    @precondition(lambda self: self.lane.busy)
    @rule(run=st.booleans())
    def apply(self, run):
        """Apply the step in flight: scheduled, or as a decode run does."""
        lane = self.lane
        members = lane.current_batch.decode_requests
        lane.land()
        if not (run and members and lane.advance()):
            for request in lane.apply_step(self._grow):
                self._leave(request, "retire")
        self.model.apply()

    @precondition(lambda self: not self.lane.busy)
    @rule(steps=st.integers(1, 8), run=st.booleans())
    def decode(self, steps, run):
        """Launch and apply consecutive steps."""
        for _ in range(steps):
            self.launch()
            self.apply(run)

    @rule()
    def sync(self):
        self.lane.sync()
        assert self.kv.charged == 0
        for rid, member in self.model.members.items():
            request = self.requests[rid]
            alloc = self.kv.get(rid)
            assert request.output_generated == member.generated, rid
            assert (alloc.tokens, alloc.blocks) == (member.tokens, -(-member.tokens // self.block))

    @rule(blocks=st.integers(1, 6))
    def take(self, blocks):
        """Something outside the lane takes free blocks."""
        if self.kv.free_gpu_blocks < blocks:
            return
        rid = TAKEN + len(self.taken)
        self.kv.allocate(rid, blocks * self.block)
        self.taken.append(rid)
        self.model.taken += blocks

    @precondition(lambda self: self.taken)
    @rule()
    def give_back(self):
        rid = self.taken.pop()
        self.model.taken -= self.kv.get(rid).blocks
        self.kv.free(rid)

    # -- invariants --------------------------------------------------------------

    @invariant()
    def matches_the_per_token_lane(self):
        assert [r.request_id for r in self.lane.running] == self.model.running
        assert self.lane.context_tokens == self.model.context()
        assert self.kv.used_gpu_blocks == self.model.used()
        assert self.log == self.model.log


LaneMachine.TestCase.settings = settings(
    max_examples=search_depth(60), stateful_step_count=80, deadline=None
)
TestLaneModel = LaneMachine.TestCase
