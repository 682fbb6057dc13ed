"""Multi-node cluster topology (the paper's §7 limitation, implemented).

Joins several :class:`~repro.hardware.topology.NodeTopology` nodes with
GPUDirect-RDMA NICs (one NIC per node, 100 Gb/s InfiniBand-class by
default, shared by all of the node's GPUs) over a non-blocking fabric.  GPU ids are global: node ``i``'s
local GPU ``j`` is ``i * gpus_per_node + j``.

The class is interface-compatible with ``NodeTopology`` (``path``,
``host_path``, ``nvlink_peer``, ``num_gpus``, ``all_links``), so placement
planning and every serving system work across nodes unchanged — cross-node
KV transfers simply ride the slower NIC path, which is exactly the cost
the paper warns about for multi-node deployments.
"""

from __future__ import annotations

from repro.hardware.gpu import GPUSpec, A800_80GB
from repro.hardware.interconnect import Link, LinkType
from repro.hardware.topology import NodeTopology, Path


class ClusterTopology:
    """Several identical nodes joined by RDMA NICs."""

    def __init__(
        self,
        num_nodes: int = 2,
        gpu: GPUSpec = A800_80GB,
        gpus_per_node: int = 8,
        numa_nodes_per_node: int = 2,
        nic_gbps: float = 12.5,  # 100 Gb/s InfiniBand per direction, shared per node
        node_gpus: list[GPUSpec] | None = None,
    ) -> None:
        """``node_gpus`` gives each node its own GPU type (heterogeneous
        clusters, the paper's §7 future work); it overrides ``gpu``."""
        if num_nodes < 1:
            raise ValueError("need at least one node")
        if node_gpus is not None and len(node_gpus) != num_nodes:
            raise ValueError("node_gpus must list one GPU spec per node")
        per_node = node_gpus or [gpu] * num_nodes
        self.nodes = [
            NodeTopology(gpu=per_node[i], num_gpus=gpus_per_node, numa_nodes=numa_nodes_per_node)
            for i in range(num_nodes)
        ]
        self.gpu = per_node[0]
        self.node_gpu_specs = per_node
        self.gpus_per_node = gpus_per_node
        self.num_nodes = num_nodes
        self._nics = [
            Link(f"rdma-nic-node{i}", LinkType.RDMA_NIC, bandwidth_gbps=nic_gbps)
            for i in range(num_nodes)
        ]
        # Each GPU pair's path, built on first use (see NodeTopology.path).
        self._paths: dict[tuple[int, int], Path] = {}

    # -- id mapping ----------------------------------------------------------

    @property
    def num_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node

    def node_of(self, gpu_id: int) -> int:
        self._check(gpu_id)
        return gpu_id // self.gpus_per_node

    def local_id(self, gpu_id: int) -> int:
        self._check(gpu_id)
        return gpu_id % self.gpus_per_node

    def numa_of(self, gpu_id: int) -> int:
        """Global NUMA index (unique across nodes)."""
        node = self.node_of(gpu_id)
        local = self.nodes[node].numa_of(self.local_id(gpu_id))
        return node * self.nodes[node].numa_nodes + local

    # -- topology interface -------------------------------------------------------

    def nvlink_peer(self, gpu_id: int) -> int | None:
        node = self.node_of(gpu_id)
        peer = self.nodes[node].nvlink_peer(self.local_id(gpu_id))
        if peer is None:
            return None
        return node * self.gpus_per_node + peer

    def path(self, src: int, dst: int) -> Path:
        path = self._paths.get((src, dst))
        if path is None:
            path = self._paths[src, dst] = self._build_path(src, dst)
        return path

    def _build_path(self, src: int, dst: int) -> Path:
        src_node, dst_node = self.node_of(src), self.node_of(dst)
        if src_node == dst_node:
            return self.nodes[src_node].path(self.local_id(src), self.local_id(dst))
        # GPUDirect RDMA: GPU -> local PCIe switch -> NIC -> fabric -> NIC ->
        # remote PCIe switch -> GPU.
        src_local = self.nodes[src_node]
        dst_local = self.nodes[dst_node]
        src_switch = src_local.host_path(self.local_id(src)).links
        dst_switch = dst_local.host_path(self.local_id(dst)).links
        return Path(
            links=list(src_switch)
            + [self._nics[src_node], self._nics[dst_node]]
            + list(dst_switch)
        )

    def host_path(self, gpu_id: int) -> Path:
        return self.nodes[self.node_of(gpu_id)].host_path(self.local_id(gpu_id))

    def all_links(self) -> list[Link]:
        links: list[Link] = []
        for node in self.nodes:
            links += node.all_links()
        return links + list(self._nics)

    def nic(self, node: int) -> Link:
        return self._nics[node]

    def gpu_spec_of(self, gpu_id: int) -> GPUSpec:
        """The device type of a (possibly heterogeneous) global GPU id."""
        return self.node_gpu_specs[self.node_of(gpu_id)]

    def _check(self, gpu_id: int) -> None:
        if not 0 <= gpu_id < self.num_gpus:
            raise ValueError(f"gpu id {gpu_id} out of range [0, {self.num_gpus})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ClusterTopology({self.num_nodes} nodes x {self.gpus_per_node} "
            f"{self.gpu.name})"
        )
