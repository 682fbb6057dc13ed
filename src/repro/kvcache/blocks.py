"""PagedAttention-style KV block manager.

KV cache is allocated in fixed-size blocks of tokens (vLLM's design, which
the paper adopts).  The manager tracks, per request, how many tokens are
cached and where the blocks live (GPU or swapped to CPU DRAM).  All
accounting is instance-level: an instance's pool aggregates the KV budget of
its GPUs, since KV tensors shard evenly across TP/PP ranks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.hardware.memory import MemoryPool, OutOfMemoryError


class BlockLocation(enum.Enum):
    GPU = "gpu"
    CPU = "cpu"


@dataclass
class KVAllocation:
    """Book-keeping for one request's cached KV."""

    request_id: int
    tokens: int
    blocks: int
    location: BlockLocation

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"KVAllocation(req={self.request_id}, tokens={self.tokens}, "
            f"blocks={self.blocks}, {self.location.value})"
        )


class KVBlockManager:
    """Allocates KV blocks for requests against a GPU pool and a CPU swap pool.

    Args:
        gpu_capacity_tokens: Total tokens' worth of KV the instance can hold
            in GPU memory.
        cpu_capacity_tokens: Swap-pool capacity (CPU DRAM), in tokens.
        block_size: Tokens per block (vLLM default 16).
        bytes_per_token: KV bytes per cached token across the instance
            (for transfer-size computations).
    """

    def __init__(
        self,
        gpu_capacity_tokens: int,
        cpu_capacity_tokens: int,
        block_size: int,
        bytes_per_token: float,
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.block_size = block_size
        self.bytes_per_token = bytes_per_token
        self.gpu_capacity_blocks = gpu_capacity_tokens // block_size
        self.cpu_capacity_blocks = cpu_capacity_tokens // block_size
        self._gpu = MemoryPool(self.gpu_capacity_blocks, name="kv-gpu-blocks")
        self._cpu = MemoryPool(self.cpu_capacity_blocks, name="kv-cpu-blocks")
        self._allocations: dict[int, KVAllocation] = {}
        # GPU blocks reserved by :meth:`charge` for decode tokens no
        # allocation records yet; :meth:`settle` moves them to theirs.  The
        # pool's used blocks are the allocations' GPU blocks plus these.
        self.charged = 0
        # Frees that found no allocation.  Only ``allocate``/``adopt`` add
        # to ``_allocations`` (each refusing a live id) and only ``free``
        # removes, so an id still in it at drain is an unfreed allocation.
        self.redundant_frees: int = 0

    # -- introspection -------------------------------------------------------

    def blocks_for(self, tokens: int) -> int:
        # Integer ceiling division: exact for any token count, unlike
        # float-division ceil, and measurably cheaper on the hot path.
        return -(-tokens // self.block_size)

    @property
    def free_gpu_blocks(self) -> int:
        return self._gpu.free

    @property
    def used_gpu_blocks(self) -> int:
        return self._gpu.used

    @property
    def free_gpu_tokens(self) -> int:
        return self._gpu.free * self.block_size

    @property
    def free_cpu_blocks(self) -> int:
        return self._cpu.free

    def has(self, request_id: int) -> bool:
        return request_id in self._allocations

    def get(self, request_id: int) -> KVAllocation:
        return self._allocations[request_id]

    def tokens_of(self, request_id: int) -> int:
        alloc = self._allocations.get(request_id)
        return alloc.tokens if alloc else 0

    def bytes_of(self, request_id: int) -> int:
        return int(self.tokens_of(request_id) * self.bytes_per_token)

    def residents(self, location: BlockLocation = BlockLocation.GPU) -> list[KVAllocation]:
        """Allocations currently at ``location``."""
        return [a for a in self._allocations.values() if a.location == location]

    def can_allocate(self, tokens: int) -> bool:
        return self.blocks_for(tokens) <= self._gpu.free

    def can_extend(self, request_id: int, new_tokens: int) -> bool:
        alloc = self._allocations.get(request_id)
        if alloc is None:
            return self.can_allocate(new_tokens)
        if alloc.location is not BlockLocation.GPU:
            return False  # swapped out: ``extend`` would refuse it
        needed = self.blocks_for(alloc.tokens + new_tokens) - alloc.blocks
        return needed <= self._gpu.free

    # -- allocation ----------------------------------------------------------

    def allocate(self, request_id: int, tokens: int) -> KVAllocation:
        """Allocate GPU blocks for a new request's ``tokens`` of KV."""
        if request_id in self._allocations:
            raise ValueError(f"request {request_id} already has an allocation")
        blocks = self.blocks_for(tokens)
        self._gpu.reserve(blocks)
        alloc = KVAllocation(request_id, tokens, blocks, BlockLocation.GPU)
        self._allocations[request_id] = alloc
        return alloc

    def extend(self, request_id: int, new_tokens: int) -> KVAllocation:
        """Grow a request's cached KV by ``new_tokens`` (decode appends)."""
        alloc = self._allocations.get(request_id)
        if alloc is None:
            return self.allocate(request_id, new_tokens)
        if alloc.location != BlockLocation.GPU:
            raise ValueError(f"request {request_id} is swapped out; swap in first")
        needed = self.blocks_for(alloc.tokens + new_tokens) - alloc.blocks
        if needed > 0:
            self._gpu.reserve(needed)
            alloc.blocks += needed
        alloc.tokens += new_tokens
        return alloc

    def slack(self, request_id: int) -> int:
        """Tokens the allocation's GPU blocks can still take without a new
        block; 0 for a swapped-out or unknown allocation."""
        alloc = self._allocations.get(request_id)
        if alloc is None or alloc.location is not BlockLocation.GPU:
            return 0
        return alloc.blocks * self.block_size - alloc.tokens

    def append(self, request_id: int, tokens: int) -> bool:
        """Write ``tokens`` decode tokens into the free slots of the
        allocation's GPU blocks, touching no pool.  Returns False, changing
        nothing, when they do not fit (:meth:`slack`): a block boundary goes
        through :meth:`extend` or :meth:`charge`."""
        alloc = self._allocations.get(request_id)
        if (
            alloc is None
            or alloc.location is not BlockLocation.GPU
            or alloc.tokens + tokens > alloc.blocks * self.block_size
        ):
            return False
        alloc.tokens += tokens
        return True

    def charge(self, blocks: int) -> bool:
        """Reserve ``blocks`` GPU blocks for decode tokens that start new
        blocks before their allocations record them (:meth:`settle` writes
        them back).  Returns False, reserving nothing, when fewer are free."""
        if blocks > self._gpu.free:
            return False
        self._gpu.reserve(blocks)
        self.charged += blocks
        return True

    def settle(self, request_id: int, tokens: int) -> None:
        """Write ``tokens`` decode tokens to the allocation's GPU blocks; the
        blocks they start come out of the :meth:`charge` ledger.  Raises
        ValueError, changing nothing, for a crossing no charge paid for."""
        alloc = self._allocations.get(request_id)
        if alloc is None or alloc.location is not BlockLocation.GPU or tokens < 0:
            raise ValueError(f"request {request_id}: cannot settle {tokens} tokens")
        total = alloc.tokens + tokens
        crossed = -(-total // self.block_size) - alloc.blocks
        if crossed > 0:
            if crossed > self.charged:
                raise ValueError(
                    f"request {request_id}: {tokens} tokens start {crossed} blocks, "
                    f"only {self.charged} charged"
                )
            self.charged -= crossed
            alloc.blocks += crossed
        alloc.tokens = total

    def free(self, request_id: int) -> None:
        """Release all blocks of a finished/migrated request."""
        alloc = self._allocations.pop(request_id, None)
        if alloc is None:
            self.redundant_frees += 1
            return
        pool = self._gpu if alloc.location == BlockLocation.GPU else self._cpu
        pool.release(alloc.blocks)

    def adopt(self, request_id: int, tokens: int, location: BlockLocation) -> KVAllocation:
        """Re-register an allocation carried over from another manager.

        No serving path calls it; ``bench/layers.py`` still probes it by name."""
        if request_id in self._allocations:
            raise ValueError(f"request {request_id} already has an allocation")
        blocks = self.blocks_for(tokens)
        pool = self._gpu if location == BlockLocation.GPU else self._cpu
        pool.reserve(blocks)
        alloc = KVAllocation(request_id, tokens, blocks, location)
        self._allocations[request_id] = alloc
        return alloc

    # -- swapping --------------------------------------------------------------

    def swap_out(self, request_id: int) -> int:
        """Move a request's blocks GPU -> CPU; returns bytes to transfer."""
        alloc = self._allocations[request_id]
        if alloc.location != BlockLocation.GPU:
            raise ValueError(f"request {request_id} is already swapped out")
        try:
            self._cpu.reserve(alloc.blocks)
        except OutOfMemoryError:
            raise OutOfMemoryError(
                f"CPU swap pool full while swapping out request {request_id}"
            ) from None
        self._gpu.release(alloc.blocks)
        alloc.location = BlockLocation.CPU
        return int(alloc.tokens * self.bytes_per_token)

    def can_swap_in(self, request_id: int) -> bool:
        alloc = self._allocations[request_id]
        return alloc.blocks <= self._gpu.free

    def swap_in(self, request_id: int) -> int:
        """Move a request's blocks CPU -> GPU; returns bytes to transfer."""
        alloc = self._allocations[request_id]
        if alloc.location != BlockLocation.CPU:
            raise ValueError(f"request {request_id} is not swapped out")
        self._gpu.reserve(alloc.blocks)
        self._cpu.release(alloc.blocks)
        alloc.location = BlockLocation.GPU
        return int(alloc.tokens * self.bytes_per_token)
