"""Automatic prefix caching: a refcounted reuse index over the KV pool.

Shared system prompts and few-shot headers mean many prompts start with the
same tokens, so their prefill recomputes KV an earlier request already
produced.  :class:`PrefixCacheIndex` keeps the KV of recently computed
prefixes resident (vLLM-style automatic prefix caching): the first request
carrying a prefix computes it and *publishes* the blocks; followers
*acquire* them — skipping that many prefill tokens via the same
shortened-prefill path the §3.3 backup re-prefill uses — and release their
hold when their own prefill completes.

The index allocates its blocks from the owning instance's
:class:`~repro.kvcache.blocks.KVBlockManager` under synthetic **negative**
request ids, one fresh id per published entry, so the existing
alloc/free-balanced KV-lifecycle audits cover the cache with no special
cases.  Entries are evicted LRU, but never while a holder still references
them; eviction happens when publishing over capacity or when the instance
needs pool headroom for live requests (the cache always yields to demand).

The index itself is pure book-keeping — no simulator, no RNG — and every
operation is deterministic given the call order, so enabling it perturbs
nothing outside the runs that opt in via
``InstanceConfig.prefix_cache_tokens``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.kvcache.blocks import KVBlockManager


@dataclass
class PrefixEntry:
    """One cached prefix: shared KV blocks plus reference accounting."""

    prefix_hash: int
    tokens: int
    alloc_id: int  # synthetic (negative) request id in the KV manager
    refcount: int = 0
    last_used: int = 0  # logical LRU clock tick

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PrefixEntry(hash={self.prefix_hash}, tokens={self.tokens}, "
            f"refs={self.refcount})"
        )


@dataclass
class PrefixCacheStats:
    """Cumulative accounting for one index instance."""

    hits: int = 0
    misses: int = 0
    tokens_served: int = 0  # prefill tokens holders skipped
    inserted_tokens: int = 0
    evictions: int = 0
    insert_skipped: int = 0  # publishes dropped for lack of pool space


@dataclass
class PrefixCacheIndex:
    """Refcounted, LRU-evicted index of warm prefix KV.

    Args:
        kv: The owning instance's block manager; all cache blocks live in
            its GPU pool and count against its capacity.
        capacity_tokens: Upper bound on tokens the cache may keep resident.
            ``0`` disables publishing entirely (every lookup misses).
    """

    kv: KVBlockManager
    capacity_tokens: int
    stats: PrefixCacheStats = field(default_factory=PrefixCacheStats)

    def __post_init__(self) -> None:
        self._entries: dict[int, PrefixEntry] = {}
        self._holders: dict[int, int] = {}  # request_id -> prefix_hash
        self._clock = 0
        self._next_alloc_id = -1  # fresh negative id per published entry

    # -- introspection -------------------------------------------------------

    @property
    def resident_tokens(self) -> int:
        return sum(entry.tokens for entry in self._entries.values())

    def holding(self, request_id: int) -> bool:
        return request_id in self._holders

    def bytes_saved(self) -> int:
        return int(self.stats.tokens_served * self.kv.bytes_per_token)

    # -- the holder protocol ---------------------------------------------------

    def acquire(self, request_id: int, prefix_hash: int, want_tokens: int) -> int:
        """Take a reference for ``request_id`` on a warm prefix.

        Returns the number of prefill tokens the holder may skip (0 on a
        cold miss).  Idempotent per request: a second acquire by the same
        holder re-reports the original grant without re-counting.
        """
        if request_id in self._holders:
            entry = self._entries.get(self._holders[request_id])
            return min(entry.tokens, want_tokens) if entry is not None else 0
        entry = self._entries.get(prefix_hash)
        if entry is None or want_tokens <= 0:
            self.stats.misses += 1
            return 0
        entry.refcount += 1
        self._touch(entry)
        self._holders[request_id] = prefix_hash
        served = min(entry.tokens, want_tokens)
        self.stats.hits += 1
        self.stats.tokens_served += served
        return served

    def release(self, request_id: int) -> None:
        """Drop ``request_id``'s reference (idempotent; safe after reset)."""
        prefix_hash = self._holders.pop(request_id, None)
        if prefix_hash is None:
            return
        entry = self._entries.get(prefix_hash)
        if entry is not None and entry.refcount > 0:
            entry.refcount -= 1

    def insert(self, prefix_hash: int, tokens: int) -> bool:
        """Publish a freshly computed prefix (the cold request's compute).

        Evicts LRU unreferenced entries to stay within ``capacity_tokens``
        and to find pool headroom; skips silently (counted) if the pool
        cannot host the blocks even then.  Returns True if published.
        """
        if tokens <= 0 or self.capacity_tokens <= 0 or tokens > self.capacity_tokens:
            self.stats.insert_skipped += 1
            return False
        existing = self._entries.get(prefix_hash)
        if existing is not None:
            self._touch(existing)
            return True
        while self.resident_tokens + tokens > self.capacity_tokens:
            if not self._evict_one():
                self.stats.insert_skipped += 1
                return False
        if not self.kv.can_allocate(tokens):
            self.evict_unreferenced(tokens)
            if not self.kv.can_allocate(tokens):
                self.stats.insert_skipped += 1
                return False
        alloc_id = self._next_alloc_id
        self._next_alloc_id -= 1
        self.kv.allocate(alloc_id, tokens)
        entry = PrefixEntry(prefix_hash=prefix_hash, tokens=tokens, alloc_id=alloc_id)
        self._touch(entry)
        self._entries[prefix_hash] = entry
        self.stats.inserted_tokens += tokens
        return True

    # -- eviction & lifecycle ---------------------------------------------------

    def evict_unreferenced(self, tokens_needed: int) -> int:
        """Evict LRU unreferenced entries until ``tokens_needed`` fit the
        pool (live traffic always beats the cache).  Returns entries freed."""
        freed = 0
        while not self.kv.can_allocate(tokens_needed):
            if not self._evict_one():
                break
            freed += 1
        return freed

    def _evict_one(self) -> bool:
        victim: Optional[PrefixEntry] = None
        for entry in self._entries.values():
            if entry.refcount > 0:
                continue
            if victim is None or entry.last_used < victim.last_used:
                victim = entry
        if victim is None:
            return False
        del self._entries[victim.prefix_hash]
        self.kv.free(victim.alloc_id)
        self.stats.evictions += 1
        return True

    def drain(self) -> None:
        """Free every cached entry back to the pool (end-of-run cleanup,
        instance reconfiguration).  Outstanding holds are dropped."""
        for entry in self._entries.values():
            self.kv.free(entry.alloc_id)
        self._entries.clear()
        self._holders.clear()

    def reset(self) -> None:
        """Forget everything *without* freeing blocks.

        Used after :meth:`Instance.fail`, which already freed every resident
        allocation (including the cache's synthetic ids) while zeroing the
        pool — freeing again here would double-count in the lifecycle audit.
        """
        self._entries.clear()
        self._holders.clear()

    def _touch(self, entry: PrefixEntry) -> None:
        self._clock += 1
        entry.last_used = self._clock
