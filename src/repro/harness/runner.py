"""Single-system builders: the serving system and workload a cell describes.

Follows the paper's methodology: Poisson arrivals at a *per-GPU* request
rate (the linear scaling rule of §2.2 — total rate = per-GPU rate x GPUs
used) and an SLO derived from the model, dataset and decode parallelism.
:meth:`repro.harness.cell.Cell.run` drives what these build;
:meth:`repro.harness.cell.CellRun.summary` reports TTFT/TPOT percentiles
and SLO attainment without the warm-up prefix.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Optional

from repro.baselines.distserve import DistServeSystem
from repro.baselines.replanning import ReplanningDistServeSystem
from repro.baselines.vllm import VLLMSystem
from repro.core.config import WindServeConfig
from repro.faults.config import ResilienceConfig
from repro.core.windserve import WindServeSystem
from repro.hardware.gpu import get_gpu
from repro.hardware.topology import NodeTopology
from repro.models.parallelism import ParallelConfig
from repro.models.registry import get_model
from repro.serving.metrics import SLO
from repro.serving.placement import plan_pd_placement
from repro.serving.system import ServingSystem, SystemConfig
from repro.harness.slo import derive_slo
from repro.workloads.arrivals import TierMix
from repro.workloads.datasets import get_dataset
from repro.workloads.prefixes import PrefixMix
from repro.workloads.tenants import TenantMix
from repro.workloads.trace import Trace, generate_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.cell import Cell

SYSTEM_NAMES = (
    "windserve",
    "windserve-no-split",
    "windserve-no-resche",
    "windserve-static",
    "distserve",
    "distserve-replan",
    "vllm",
)


def __getattr__(name: str):
    # ``bench/workloads.py`` still imports the old spec name; the alias
    # goes with the next benchmark-labelled change.
    if name == "ExperimentSpec":
        from repro.harness.cell import Cell

        return Cell
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _parallel(tp_pp: tuple[int, int]) -> ParallelConfig:
    return ParallelConfig(tp=tp_pp[0], pp=tp_pp[1])


def resolve_slo(cell: "Cell") -> SLO:
    return derive_slo(
        get_model(cell.model),
        get_dataset(cell.dataset),
        _parallel(cell.decode_parallel),
        get_gpu(cell.gpu),
    )


def build_system(cell: "Cell", slo: Optional[SLO] = None) -> ServingSystem:
    """Instantiate the single serving system a :class:`Cell` describes."""
    if cell.system not in SYSTEM_NAMES:
        raise ValueError(f"unknown system {cell.system!r}; known: {SYSTEM_NAMES}")
    gpu = get_gpu(cell.gpu)
    topology = NodeTopology(gpu=gpu, num_gpus=cell.num_node_gpus)
    config = SystemConfig(
        model=get_model(cell.model),
        gpu=gpu,
        slo=slo or resolve_slo(cell),
        instance=cell.instance(),
        decode_instance=cell.decode_instance_config,
        resilience=cell.resilience() or ResilienceConfig(),
        admission_policy=cell.admission_policy,
        fairshare=cell.fairshare(),
    )
    prefill, decode = _parallel(cell.prefill_parallel), _parallel(cell.decode_parallel)

    if cell.system == "vllm":
        replicas = max(1, cell.gpus_used // decode.num_gpus)
        return VLLMSystem(config, parallel=decode, num_replicas=replicas, topology=topology)

    placement = plan_pd_placement(topology, prefill, decode)
    if cell.system == "distserve":
        return DistServeSystem(config, placement=placement, topology=topology)
    if cell.system == "distserve-replan":
        # The §2.2 strawman replans between the cell's placement and its
        # mirror (prefill and decode parallelism swapped).
        mirror = plan_pd_placement(topology, decode, prefill)
        return ReplanningDistServeSystem(
            config, alternatives=[placement, mirror], topology=topology
        )

    ws = cell.ws_config or WindServeConfig()
    if cell.system == "windserve-no-split":
        ws = replace(ws, colocation_mode="hybrid")
    elif cell.system == "windserve-no-resche":
        ws = replace(ws, rescheduling_enabled=False)
    elif cell.system == "windserve-static":
        ws = replace(
            ws, dispatch_enabled=False, rescheduling_enabled=False, backup_enabled=False
        )
    return WindServeSystem(config, ws_config=ws, placement=placement, topology=topology)


def generate_workload(cell: "Cell", gpus: Optional[int] = None) -> Trace:
    """The arrival trace a :class:`Cell` describes.

    The total rate follows the paper's linear scaling rule: per-GPU rate x
    the GPUs used (``gpus`` overrides the cell's own count, e.g. a fleet's).
    """
    return generate_trace(
        get_dataset(cell.dataset),
        rate=cell.rate_per_gpu * (gpus or cell.gpus_used),
        num_requests=cell.num_requests,
        seed=cell.seed,
        model=get_model(cell.model),
        arrival_process=cell.arrival_process,
        burstiness_cv=cell.burstiness_cv,
        tier_mix=TierMix.parse(cell.tier_mix) if cell.tier_mix else None,
        prefix_mix=PrefixMix.parse(cell.prefix_mix) if cell.prefix_mix else None,
        tenant_mix=TenantMix.parse(cell.tenant_mix) if cell.tenant_mix else None,
    )
