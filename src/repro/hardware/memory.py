"""Byte-granular memory pools for HBM and host DRAM accounting."""

from __future__ import annotations


class OutOfMemoryError(RuntimeError):
    """Raised when a reservation exceeds the pool's free capacity."""


class MemoryPool:
    """Tracks reserved bytes against a fixed capacity.

    The simulator never stores tensors; it only needs the book-keeping so the
    KV manager can tell when blocks must be swapped or requests queued.
    """

    def __init__(self, capacity_bytes: int, name: str = "pool") -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        self.name = name
        self._capacity = int(capacity_bytes)
        self._used = 0
        self.peak_used = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def used(self) -> int:
        return self._used

    @property
    def free(self) -> int:
        return self._capacity - self._used

    @property
    def utilization(self) -> float:
        """Fraction of capacity in use (0 for an empty zero-capacity pool)."""
        if self._capacity == 0:
            return 0.0
        return self._used / self._capacity

    def reserve(self, nbytes: int) -> None:
        """Take ``nbytes`` from the pool; raises :class:`OutOfMemoryError` if short."""
        if nbytes < 0:
            raise ValueError("cannot reserve a negative amount")
        if nbytes > self.free:
            raise OutOfMemoryError(
                f"{self.name}: requested {nbytes} bytes, only {self.free} free "
                f"of {self._capacity}"
            )
        self._used += nbytes
        self.peak_used = max(self.peak_used, self._used)

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the pool."""
        if nbytes < 0:
            raise ValueError("cannot release a negative amount")
        if nbytes > self._used:
            raise ValueError(
                f"{self.name}: releasing {nbytes} bytes but only {self._used} reserved"
            )
        self._used -= nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MemoryPool({self.name}, used={self._used}/{self._capacity})"
