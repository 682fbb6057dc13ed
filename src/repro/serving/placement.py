"""GPU placement planning for serving instances.

Follows the testbed's constraints (Fig. 9): tensor-parallel groups want the
NVLink bridge (so TP-2 groups map onto hardware pairs), and prefill/decode
instances are interleaved across pairs so that KV-cache transfers stay on
the intra-NUMA PCIe switch instead of crossing the Root Complex — the same
choices DistServe's placement simulation makes on this hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.hardware.cluster import ClusterTopology
from repro.hardware.topology import NodeTopology
from repro.models.parallelism import ParallelConfig


class PlacementError(ValueError):
    """Raised when the requested parallelism does not fit the node."""


@dataclass(frozen=True)
class Placement:
    """Chosen GPUs and parallelism for a prefill/decode instance pair."""

    prefill_gpus: tuple[int, ...]
    decode_gpus: tuple[int, ...]
    prefill_parallel: ParallelConfig
    decode_parallel: ParallelConfig

    def label(self) -> str:
        return f"[{self.prefill_parallel.label()}; {self.decode_parallel.label()}]"


def _tp_groups(topology: NodeTopology, tp: int, count: int, taken: set[int]) -> list[tuple[int, ...]]:
    """Pick ``count`` TP groups of size ``tp`` from free GPUs, preferring
    NVLink pairs for TP-2."""
    groups: list[tuple[int, ...]] = []
    free = [g for g in range(topology.num_gpus) if g not in taken]
    if tp == 2:
        pairs = [
            (a, topology.nvlink_peer(a))
            for a in free
            if topology.nvlink_peer(a) is not None and a % 2 == 0
        ]
        pairs = [(a, b) for a, b in pairs if b not in taken]
        for pair in pairs:
            if len(groups) == count:
                break
            groups.append(pair)  # type: ignore[arg-type]
            taken.update(pair)  # type: ignore[arg-type]
    while len(groups) < count:
        free = [g for g in range(topology.num_gpus) if g not in taken]
        if len(free) < tp:
            raise PlacementError(
                f"not enough free GPUs for {count} groups of TP-{tp} "
                f"on a {topology.num_gpus}-GPU node"
            )
        group = tuple(free[:tp])
        taken.update(group)
        groups.append(group)
    return groups


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


def plan_pd_placement(
    topology: NodeTopology,
    prefill_parallel: ParallelConfig,
    decode_parallel: ParallelConfig,
) -> Placement:
    """Place a prefill and a decode instance on one node.

    Pipeline stages of the two instances are allocated alternately so the
    prefill stage ``k`` and decode stage ``k`` land in the same NUMA domain,
    keeping the prefill->decode KV transfer off the Root Complex.
    """
    total = prefill_parallel.num_gpus + decode_parallel.num_gpus
    if total > topology.num_gpus:
        raise PlacementError(
            f"placement needs {total} GPUs but the node has {topology.num_gpus}"
        )
    taken: set[int] = set()
    prefill_groups: list[tuple[int, ...]] = []
    decode_groups: list[tuple[int, ...]] = []
    p_left, d_left = prefill_parallel.pp, decode_parallel.pp
    # Alternate prefill/decode stage allocation for NUMA adjacency.
    while p_left or d_left:
        if p_left:
            prefill_groups += _tp_groups(topology, prefill_parallel.tp, 1, taken)
            p_left -= 1
        if d_left:
            decode_groups += _tp_groups(topology, decode_parallel.tp, 1, taken)
            d_left -= 1

    prefill_gpus = tuple(g for grp in prefill_groups for g in grp)
    decode_gpus = tuple(g for grp in decode_groups for g in grp)
    return Placement(
        prefill_gpus=prefill_gpus,
        decode_gpus=decode_gpus,
        prefill_parallel=bind_tp_link(topology, prefill_parallel, prefill_gpus),
        decode_parallel=bind_tp_link(topology, decode_parallel, decode_gpus),
    )


def plan_colocated_placement(
    topology: NodeTopology,
    parallel: ParallelConfig,
    num_replicas: int,
) -> list[tuple[tuple[int, ...], ParallelConfig]]:
    """Place ``num_replicas`` colocated (vLLM-style) engine replicas."""
    taken: set[int] = set()
    replicas: list[tuple[tuple[int, ...], ParallelConfig]] = []
    for _ in range(num_replicas):
        groups = []
        for _stage in range(parallel.pp):
            groups += _tp_groups(topology, parallel.tp, 1, taken)
        gpus = tuple(g for grp in groups for g in grp)
        replicas.append((gpus, bind_tp_link(topology, parallel, gpus)))
    return replicas
