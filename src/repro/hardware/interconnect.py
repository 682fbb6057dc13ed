"""Interconnect links with FIFO bandwidth reservation.

A :class:`Link` models one shared medium (an NVLink bridge, a PCIe switch's
uplink, or the cross-NUMA Root Complex).  Transfers reserve the link
back-to-back: a new transfer starts when the link drains, which reproduces the
serialisation the paper observes for bulk KV-cache movement over PCIe.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

GB = 1024**3


class LinkType(enum.Enum):
    """Physical medium classes present in the Fig. 9 testbed (plus the
    RDMA NIC used for multi-node deployments, §7)."""

    NVLINK_BRIDGE = "nvlink-bridge"
    PCIE_SWITCH = "pcie-switch"
    ROOT_COMPLEX = "root-complex"
    PCIE_HOST = "pcie-host"  # GPU <-> CPU DRAM (swap path)
    RDMA_NIC = "rdma-nic"  # GPUDirect RDMA across nodes


# Effective fraction of nominal bandwidth actually achieved for bulk copies.
# The paper's worked example (1.5 GB over PCIe Gen4 x16 "32 GB/s" taking
# ~65 ms) implies ~0.7 efficiency once protocol and pinning overheads are in.
DEFAULT_LINK_EFFICIENCY: dict[LinkType, float] = {
    LinkType.NVLINK_BRIDGE: 0.90,
    LinkType.PCIE_SWITCH: 0.72,
    LinkType.ROOT_COMPLEX: 0.55,
    LinkType.PCIE_HOST: 0.72,
    LinkType.RDMA_NIC: 0.80,
}

DEFAULT_LINK_LATENCY_S: dict[LinkType, float] = {
    LinkType.NVLINK_BRIDGE: 5e-6,
    LinkType.PCIE_SWITCH: 15e-6,
    LinkType.ROOT_COMPLEX: 30e-6,
    LinkType.PCIE_HOST: 15e-6,
    LinkType.RDMA_NIC: 3e-6,  # per-hop wire latency; software adds more
}


@dataclass(frozen=True)
class TransferReservation:
    """Outcome of reserving a path: when the copy starts and finishes."""

    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


class Link:
    """One shared, per-direction interconnect medium.

    ``reserve`` implements FIFO back-to-back scheduling: the transfer begins
    at ``max(now, busy_until)`` and occupies the link for
    ``latency + bytes / effective_bandwidth`` seconds.
    """

    def __init__(
        self,
        name: str,
        link_type: LinkType,
        bandwidth_gbps: float,
        efficiency: float | None = None,
        latency_s: float | None = None,
    ) -> None:
        if bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        self.name = name
        self.link_type = link_type
        self.bandwidth_gbps = bandwidth_gbps
        self.efficiency = (
            DEFAULT_LINK_EFFICIENCY[link_type] if efficiency is None else efficiency
        )
        self.latency_s = DEFAULT_LINK_LATENCY_S[link_type] if latency_s is None else latency_s
        self.busy_until = 0.0
        self.bytes_transferred = 0
        self.transfer_count = 0
        self.busy_time = 0.0

    @property
    def effective_bytes_per_s(self) -> float:
        return self.bandwidth_gbps * GB * self.efficiency

    def transfer_duration(self, nbytes: int) -> float:
        """Wire time for ``nbytes``, ignoring queueing."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        return self.latency_s + nbytes / self.effective_bytes_per_s

    def reserve(self, now: float, nbytes: int) -> TransferReservation:
        """Queue a transfer of ``nbytes`` starting no earlier than ``now``."""
        start = max(now, self.busy_until)
        duration = self.transfer_duration(nbytes)
        finish = start + duration
        self.busy_until = finish
        self.bytes_transferred += nbytes
        self.transfer_count += 1
        self.busy_time += duration
        return TransferReservation(start=start, finish=finish)

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` the link spent busy."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Link({self.name}, {self.link_type.value}, {self.bandwidth_gbps} GB/s)"
