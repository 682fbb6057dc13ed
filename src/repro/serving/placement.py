"""GPU placement: the one place that decides which GPU ids an instance gets
and which TP link it is priced at.

Follows the testbed's constraints (Fig. 9): tensor-parallel groups want the
NVLink bridge (so TP-2 groups map onto hardware pairs), and prefill/decode
instances are interleaved across pairs so that KV-cache transfers stay on
the intra-NUMA PCIe switch instead of crossing the Root Complex — the same
choices DistServe's placement simulation makes on this hardware.

Every claim, single system or fleet, goes through one :class:`GpuLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.hardware.cluster import ClusterTopology
from repro.hardware.topology import NodeTopology
from repro.models.parallelism import ParallelConfig

#: (prefill (tp, pp), decode (tp, pp)) shapes the placement search ranks
#: and the fleet re-planner widens to.
PLACEMENT_CANDIDATES: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = (
    ((1, 1), (1, 1)),
    ((2, 1), (1, 1)),
    ((1, 1), (2, 1)),
    ((2, 1), (2, 1)),
    ((2, 2), (2, 1)),
    ((2, 1), (2, 2)),
    ((2, 2), (2, 2)),
)


class PlacementError(ValueError):
    """Raised when the requested GPUs do not fit the node."""


@dataclass(frozen=True)
class Placement:
    """Chosen GPUs and parallelism for a prefill/decode instance pair."""

    prefill_gpus: tuple[int, ...]
    decode_gpus: tuple[int, ...]
    prefill_parallel: ParallelConfig
    decode_parallel: ParallelConfig

    def label(self) -> str:
        return f"[{self.prefill_parallel.label()}; {self.decode_parallel.label()}]"


class GpuLedger:
    """The GPU ids taken in one cluster (a ``NodeTopology`` is a one-node
    cluster); every placement claims here.

    A claim takes a node's lowest free ids, so claims made in order pack
    each node front to back.  With ``nvlink_pair``, a two-GPU claim first
    takes the node's first free NVLink-bridged pair ``(2k, 2k+1)``.  Ids
    are only ever taken or free: a dead fleet member keeps its GPUs (it
    rejoins on its original placement).

    ``gpus_per_node`` overrides the node size; a single system passes
    ``topology.num_gpus`` to claim from its whole topology as node 0.
    """

    def __init__(
        self,
        topology: NodeTopology | ClusterTopology,
        taken: Iterable[int] = (),
        gpus_per_node: Optional[int] = None,
    ) -> None:
        self.topology = topology
        self.gpus_per_node = gpus_per_node or (
            topology.gpus_per_node if isinstance(topology, ClusterTopology) else topology.num_gpus
        )
        self.taken: set[int] = set(taken)

    def free_on(self, node: int) -> list[int]:
        """The node's free GPU ids, ascending."""
        base = node * self.gpus_per_node
        return [g for g in range(base, base + self.gpus_per_node) if g not in self.taken]

    def claim(
        self, node: int, count: int, label: str, nvlink_pair: bool = False
    ) -> tuple[int, ...]:
        """Take ``count`` free ids on ``node`` for ``label``: the lowest
        ones, or with ``nvlink_pair`` and ``count == 2`` the first free
        bridged pair if there is one."""
        free = self.free_on(node)
        if count > len(free):
            raise PlacementError(
                f"node {node} cannot host {label} ({count} GPUs, {len(free)} free "
                f"of {self.gpus_per_node})"
            )
        gpus = tuple(free[:count])
        if nvlink_pair and count == 2:
            peer = self.topology.nvlink_peer
            gpus = next(((a, a + 1) for a in free if a + 1 in free and peer(a) == a + 1), gpus)
        self.taken.update(gpus)
        return gpus

    def release(self, gpus: Iterable[int]) -> None:
        self.taken.difference_update(gpus)


def bind_tp_link(
    topology: NodeTopology | ClusterTopology, cfg: ParallelConfig, gpus: Sequence[int]
) -> ParallelConfig:
    """Bind a config to its worst per-stage TP-group link, in GiB/s.

    Pipeline stage ``k`` runs on ``gpus[k * tp:(k + 1) * tp]``; only GPUs
    inside one stage exchange all-reduces, so the link between stages never
    prices TP.  TP-1 stays as given.
    """
    if cfg.tp == 1:
        return cfg
    link = min(
        topology.path(a, b).bottleneck_bytes_per_s / 1024**3
        for start in range(0, len(gpus), cfg.tp)
        for i, a in enumerate(gpus[start : start + cfg.tp])
        for b in gpus[start + i + 1 : start + cfg.tp]
    )
    return ParallelConfig(
        tp=cfg.tp, pp=cfg.pp, tp_link_gbps=link, tp_efficiency=cfg.tp_efficiency
    )


def bind_placement(
    topology: NodeTopology | ClusterTopology,
    prefill_gpus: tuple[int, ...],
    decode_gpus: tuple[int, ...],
    prefill_parallel: ParallelConfig,
    decode_parallel: ParallelConfig,
) -> Placement:
    """A :class:`Placement` on claimed GPUs, each side bound to its TP link."""
    return Placement(
        prefill_gpus=prefill_gpus,
        decode_gpus=decode_gpus,
        prefill_parallel=bind_tp_link(topology, prefill_parallel, prefill_gpus),
        decode_parallel=bind_tp_link(topology, decode_parallel, decode_gpus),
    )


def plan_pd_placement(
    topology: NodeTopology | ClusterTopology,
    prefill_parallel: ParallelConfig,
    decode_parallel: ParallelConfig,
) -> Placement:
    """Place a prefill and a decode instance on one node (a cluster is
    claimed as one pool).

    Pipeline stages of the two instances are claimed alternately so the
    prefill stage ``k`` and decode stage ``k`` land in the same NUMA domain,
    keeping the prefill->decode KV transfer off the Root Complex.
    """
    ledger = GpuLedger(topology, gpus_per_node=topology.num_gpus)
    prefill_gpus: tuple[int, ...] = ()
    decode_gpus: tuple[int, ...] = ()
    for stage in range(max(prefill_parallel.pp, decode_parallel.pp)):
        if stage < prefill_parallel.pp:
            prefill_gpus += ledger.claim(
                0, prefill_parallel.tp, f"prefill stage {stage}", nvlink_pair=True
            )
        if stage < decode_parallel.pp:
            decode_gpus += ledger.claim(
                0, decode_parallel.tp, f"decode stage {stage}", nvlink_pair=True
            )
    return bind_placement(topology, prefill_gpus, decode_gpus, prefill_parallel, decode_parallel)


def plan_colocated_placement(
    topology: NodeTopology | ClusterTopology,
    parallel: ParallelConfig,
    num_replicas: int,
) -> list[tuple[tuple[int, ...], ParallelConfig]]:
    """Place ``num_replicas`` colocated (vLLM-style) engine replicas."""
    ledger = GpuLedger(topology, gpus_per_node=topology.num_gpus)
    replicas: list[tuple[tuple[int, ...], ParallelConfig]] = []
    for replica in range(num_replicas):
        gpus: tuple[int, ...] = ()
        for stage in range(parallel.pp):
            gpus += ledger.claim(
                0, parallel.tp, f"replica {replica} stage {stage}", nvlink_pair=True
            )
        replicas.append((gpus, bind_tp_link(topology, parallel, gpus)))
    return replicas
