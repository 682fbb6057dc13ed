"""Node topology mirroring the paper's testbed (Fig. 9).

Two NUMA nodes; within a NUMA node GPUs hang off a PCIe Gen4 switch and
adjacent GPU pairs are additionally joined by an NVLink bridge; the NUMA
nodes meet at the Root Complex.  Host (CPU DRAM) traffic for KV swapping
shares the PCIe switch, which is exactly why heavy swapping degrades
KV-cache transfers in the motivation experiment (Fig. 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.gpu import GPUSpec, A800_80GB
from repro.hardware.interconnect import Link, LinkType, TransferReservation


@dataclass
class Path:
    """An ordered set of links between two endpoints.

    Transfers over a path use the bottleneck model: wire time is the sum of
    per-link latencies plus ``bytes / min(effective bandwidth)``; the
    reservation occupies every link on the path for that duration.
    """

    links: list[Link] = field(default_factory=list)

    @property
    def bottleneck_bytes_per_s(self) -> float:
        if not self.links:
            return float("inf")
        return min(link.effective_bytes_per_s for link in self.links)

    @property
    def latency_s(self) -> float:
        return sum(link.latency_s for link in self.links)

    def transfer_duration(self, nbytes: int) -> float:
        """Unqueued wire time for ``nbytes`` over this path."""
        if not self.links:
            return 0.0
        return self.latency_s + nbytes / self.bottleneck_bytes_per_s

    def reserve(self, now: float, nbytes: int) -> TransferReservation:
        """FIFO-reserve all links on the path for one transfer."""
        if not self.links:
            return TransferReservation(start=now, finish=now)
        start = max([now] + [link.busy_until for link in self.links])
        duration = self.transfer_duration(nbytes)
        finish = start + duration
        for link in self.links:
            link.busy_until = finish
            link.bytes_transferred += nbytes
            link.transfer_count += 1
            link.busy_time += duration
        return TransferReservation(start=start, finish=finish)


class NodeTopology:
    """A single multi-GPU server node.

    GPUs are indexed ``0..num_gpus-1``.  GPU ``2k`` and ``2k+1`` form an
    NVLink-bridged pair; the first half of the GPUs sit on NUMA node 0 and
    the second half on NUMA node 1 (matching the 8-GPU A800 testbed).
    """

    def __init__(
        self,
        gpu: GPUSpec = A800_80GB,
        num_gpus: int = 8,
        numa_nodes: int = 2,
        cpu_dram_gb: float = 768.0,
    ) -> None:
        if num_gpus < 1:
            raise ValueError("need at least one GPU")
        if numa_nodes < 1 or num_gpus % numa_nodes != 0:
            raise ValueError("num_gpus must divide evenly across numa_nodes")
        self.gpu = gpu
        self.num_gpus = num_gpus
        self.numa_nodes = numa_nodes
        self.gpus_per_numa = num_gpus // numa_nodes
        self.cpu_dram_gb = cpu_dram_gb

        self._nvlink: dict[tuple[int, int], Link] = {}
        if gpu.nvlink_gbps > 0:
            for k in range(num_gpus // 2):
                a, b = 2 * k, 2 * k + 1
                if self.numa_of(a) == self.numa_of(b):
                    self._nvlink[(a, b)] = Link(
                        name=f"nvlink-{a}-{b}",
                        link_type=LinkType.NVLINK_BRIDGE,
                        bandwidth_gbps=gpu.nvlink_gbps,
                    )

        self._pcie_switch: list[Link] = [
            Link(
                name=f"pcie-switch-numa{n}",
                link_type=LinkType.PCIE_SWITCH,
                bandwidth_gbps=gpu.pcie_gbps,
            )
            for n in range(numa_nodes)
        ]
        self._root_complex = Link(
            name="root-complex",
            link_type=LinkType.ROOT_COMPLEX,
            bandwidth_gbps=gpu.pcie_gbps,
        )
        # Each GPU pair's path, built on first use.  Faults change links in
        # place, so a built path stays exact.
        self._paths: dict[tuple[int, int], Path] = {}

    def numa_of(self, gpu_id: int) -> int:
        """NUMA node hosting ``gpu_id``."""
        self._check_gpu(gpu_id)
        return gpu_id // self.gpus_per_numa

    def nvlink_peer(self, gpu_id: int) -> int | None:
        """The GPU sharing an NVLink bridge with ``gpu_id``, if any."""
        self._check_gpu(gpu_id)
        peer = gpu_id + 1 if gpu_id % 2 == 0 else gpu_id - 1
        key = (min(gpu_id, peer), max(gpu_id, peer))
        return peer if key in self._nvlink else None

    def path(self, src: int, dst: int) -> Path:
        """Link path for a GPU-to-GPU copy (the same object on every call)."""
        path = self._paths.get((src, dst))
        if path is None:
            path = self._paths[src, dst] = self._build_path(src, dst)
        return path

    def _build_path(self, src: int, dst: int) -> Path:
        self._check_gpu(src)
        self._check_gpu(dst)
        if src == dst:
            return Path(links=[])
        key = (min(src, dst), max(src, dst))
        if key in self._nvlink:
            return Path(links=[self._nvlink[key]])
        numa_s, numa_d = self.numa_of(src), self.numa_of(dst)
        if numa_s == numa_d:
            return Path(links=[self._pcie_switch[numa_s]])
        return Path(
            links=[self._pcie_switch[numa_s], self._root_complex, self._pcie_switch[numa_d]]
        )

    def host_path(self, gpu_id: int) -> Path:
        """Link path for a GPU <-> CPU-DRAM copy (KV swap)."""
        return Path(links=[self._pcie_switch[self.numa_of(gpu_id)]])

    def all_links(self) -> list[Link]:
        """Every link in the node (for utilisation reporting)."""
        return list(self._nvlink.values()) + self._pcie_switch + [self._root_complex]

    def _check_gpu(self, gpu_id: int) -> None:
        if not 0 <= gpu_id < self.num_gpus:
            raise ValueError(f"gpu id {gpu_id} out of range [0, {self.num_gpus})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"NodeTopology({self.gpu.name}, {self.num_gpus} GPUs, "
            f"{self.numa_nodes} NUMA nodes)"
        )
