"""Stateful property testing of the KV block manager.

Hypothesis drives random operation sequences against a reference model of
the manager (plain dicts), checking the two stay equivalent and the pool
invariants hold at every step.  A second, event-counting model tallies
the allocations and frees that succeed per id; its balance equals
``KVBlockManager.has`` after every step, which is why the manager keeps no
per-id event counters of its own."""

from __future__ import annotations

from collections import Counter

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
from hypothesis import strategies as st

from repro.hardware.memory import OutOfMemoryError
from repro.kvcache.blocks import BlockLocation, KVBlockManager
from tests.conftest import search_depth

GPU_TOKENS = 2048
CPU_TOKENS = 1024
BLOCK = 16


class KVMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.kv = KVBlockManager(
            gpu_capacity_tokens=GPU_TOKENS,
            cpu_capacity_tokens=CPU_TOKENS,
            block_size=BLOCK,
            bytes_per_token=10.0,
        )
        # Reference model: request_id -> (tokens, location), and the GPU
        # blocks charged for crossings no allocation records yet.
        self.model: dict[int, tuple[int, str]] = {}
        self.charged = 0
        # Alloc/free model: successful allocations (allocate, adopt, extend
        # of an unknown id) and frees that found an allocation, per id.
        self.allocs: Counter[int] = Counter()
        self.frees: Counter[int] = Counter()

    # -- helpers --------------------------------------------------------------

    def model_gpu_blocks(self) -> int:
        return sum(
            -(-tokens // BLOCK) for tokens, loc in self.model.values() if loc == "gpu"
        )

    def model_balance(self, rid: int) -> int:
        return self.allocs[rid] - self.frees[rid]

    def model_cpu_blocks(self) -> int:
        return sum(
            -(-tokens // BLOCK) for tokens, loc in self.model.values() if loc == "cpu"
        )

    # -- rules -----------------------------------------------------------------

    @rule(rid=st.integers(0, 15), tokens=st.integers(1, 600))
    def allocate(self, rid, tokens):
        try:
            self.kv.allocate(rid, tokens)
            assert rid not in self.model
            self.model[rid] = (tokens, "gpu")
            self.allocs[rid] += 1
        except ValueError:
            assert rid in self.model
        except OutOfMemoryError:
            needed = -(-tokens // BLOCK)
            assert needed > self.kv.free_gpu_blocks

    @rule(rid=st.integers(0, 15), tokens=st.integers(1, 64))
    def extend(self, rid, tokens):
        entry = self.model.get(rid)
        try:
            self.kv.extend(rid, tokens)
            if entry is None:
                self.model[rid] = (tokens, "gpu")
                self.allocs[rid] += 1
            else:
                assert entry[1] == "gpu"
                self.model[rid] = (entry[0] + tokens, "gpu")
        except ValueError:
            assert entry is not None and entry[1] == "cpu"
        except OutOfMemoryError:
            pass  # growth denied; state unchanged

    @rule(rid=st.integers(0, 15), tokens=st.integers(0, 16))
    def append(self, rid, tokens):
        entry = self.model.get(rid)
        on_gpu = entry is not None and entry[1] == "gpu"
        # Room in the last block: a GPU allocation's free slots (0 for a
        # swapped or unknown one, which take no tokens at all).
        room = -entry[0] % BLOCK if on_gpu else 0
        assert self.kv.slack(rid) == room
        free = self.kv.free_gpu_blocks
        fits = on_gpu and tokens <= room
        assert self.kv.append(rid, tokens) == fits
        if fits:
            self.model[rid] = (entry[0] + tokens, "gpu")
        assert self.kv.free_gpu_blocks == free

    @rule(blocks=st.integers(0, 8))
    def charge(self, blocks):
        free = self.kv.free_gpu_blocks
        charged = self.kv.charge(blocks)
        assert charged == (blocks <= free)
        if charged:
            self.charged += blocks
        assert self.kv.free_gpu_blocks == free - (blocks if charged else 0)

    @rule(rid=st.integers(0, 15), tokens=st.integers(0, 48))
    def settle(self, rid, tokens):
        entry = self.model.get(rid)
        on_gpu = entry is not None and entry[1] == "gpu"
        crossed = -(-(entry[0] + tokens) // BLOCK) - -(-entry[0] // BLOCK) if entry else 0
        free = self.kv.free_gpu_blocks
        try:
            self.kv.settle(rid, tokens)
            assert on_gpu and crossed <= self.charged
            self.model[rid] = (entry[0] + tokens, "gpu")
            self.charged -= crossed
        except ValueError:
            # Off the GPU, or a crossing no charge paid for.
            assert not on_gpu or crossed > self.charged
        assert self.kv.free_gpu_blocks == free

    @rule(rid=st.integers(0, 15), tokens=st.integers(1, 64))
    def can_extend(self, rid, tokens):
        entry = self.model.get(rid)
        if entry is None:
            expected = -(-tokens // BLOCK) <= self.kv.free_gpu_blocks
        elif entry[1] == "cpu":
            expected = False
        else:
            needed = -(-(entry[0] + tokens) // BLOCK) - -(-entry[0] // BLOCK)
            expected = needed <= self.kv.free_gpu_blocks
        assert self.kv.can_extend(rid, tokens) == expected

    @rule(rid=st.integers(0, 15), tokens=st.integers(1, 300), to_gpu=st.booleans())
    def adopt(self, rid, tokens, to_gpu):
        location = BlockLocation.GPU if to_gpu else BlockLocation.CPU
        try:
            self.kv.adopt(rid, tokens, location)
            assert rid not in self.model
            self.model[rid] = (tokens, "gpu" if to_gpu else "cpu")
            self.allocs[rid] += 1
        except ValueError:
            assert rid in self.model
        except OutOfMemoryError:
            free = (
                self.kv.free_gpu_blocks
                if to_gpu
                else self.kv.cpu_capacity_blocks - self.model_cpu_blocks()
            )
            assert -(-tokens // BLOCK) > free

    @rule(rid=st.integers(0, 15))
    def free(self, rid):
        redundant = self.kv.redundant_frees
        self.kv.free(rid)
        if self.kv.redundant_frees == redundant:
            self.frees[rid] += 1
        else:
            assert self.kv.redundant_frees == redundant + 1
        self.model.pop(rid, None)

    @precondition(lambda self: any(loc == "gpu" for _, loc in self.model.values()))
    @rule(data=st.data())
    def swap_out(self, data):
        gpu_ids = [rid for rid, (_, loc) in self.model.items() if loc == "gpu"]
        rid = data.draw(st.sampled_from(gpu_ids))
        tokens = self.model[rid][0]
        try:
            nbytes = self.kv.swap_out(rid)
            assert nbytes == int(tokens * 10.0)
            self.model[rid] = (tokens, "cpu")
        except OutOfMemoryError:
            needed = -(-tokens // BLOCK)
            assert needed > self.kv.cpu_capacity_blocks - self.model_cpu_blocks()

    @precondition(lambda self: any(loc == "cpu" for _, loc in self.model.values()))
    @rule(data=st.data())
    def swap_in(self, data):
        cpu_ids = [rid for rid, (_, loc) in self.model.items() if loc == "cpu"]
        rid = data.draw(st.sampled_from(cpu_ids))
        tokens = self.model[rid][0]
        if self.kv.can_swap_in(rid):
            self.kv.swap_in(rid)
            self.model[rid] = (tokens, "gpu")
        else:
            needed = -(-tokens // BLOCK)
            assert needed > self.kv.free_gpu_blocks

    # -- invariants -------------------------------------------------------------

    @invariant()
    def block_accounting_matches_model(self):
        used = self.model_gpu_blocks() + self.charged
        assert self.kv.used_gpu_blocks == used
        assert self.kv.gpu_capacity_blocks - self.kv.free_gpu_blocks == used

    @invariant()
    def charged_ledger_matches_model(self):
        assert self.kv.charged == self.charged >= 0

    @invariant()
    def tokens_match_model(self):
        for rid, (tokens, loc) in self.model.items():
            assert self.kv.tokens_of(rid) == tokens
            expected = BlockLocation.GPU if loc == "gpu" else BlockLocation.CPU
            assert self.kv.get(rid).location == expected

    @invariant()
    def blocks_cover_tokens_exactly(self):
        # The in-block append relies on this: a free slot in the last block
        # exists exactly when ``tokens < blocks * BLOCK``.
        for alloc in self.kv.residents(BlockLocation.GPU) + self.kv.residents(
            BlockLocation.CPU
        ):
            assert alloc.blocks == -(-alloc.tokens // BLOCK)

    @invariant()
    def alloc_free_balance_is_liveness(self):
        for rid in range(16):  # every id the rules draw
            assert self.model_balance(rid) == self.kv.has(rid), rid

    @invariant()
    def no_phantom_allocations(self):
        live = {a.request_id for a in self.kv.residents(BlockLocation.GPU)}
        live |= {a.request_id for a in self.kv.residents(BlockLocation.CPU)}
        assert live == set(self.model)


KVMachine.TestCase.settings = settings(
    max_examples=search_depth(40), stateful_step_count=60, deadline=None
)
TestKVStateMachine = KVMachine.TestCase
