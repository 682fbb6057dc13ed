"""Experiment runner: build a system, generate a workload, measure.

Follows the paper's methodology: Poisson arrivals at a *per-GPU* request
rate (the linear scaling rule of §2.2 — total rate = per-GPU rate x GPUs
used), a warm-up prefix excluded from metrics, and TTFT/TPOT percentiles +
SLO attainment reported per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.baselines.distserve import DistServeSystem
from repro.baselines.vllm import VLLMSystem
from repro.core.config import WindServeConfig
from repro.faults.config import ResilienceConfig
from repro.core.windserve import WindServeSystem
from repro.hardware.gpu import GPUSpec, A800_80GB
from repro.hardware.topology import NodeTopology
from repro.models.parallelism import ParallelConfig
from repro.models.registry import get_model
from repro.serving.instance import InstanceConfig
from repro.serving.metrics import SLO, MetricsCollector
from repro.serving.placement import plan_pd_placement
from repro.serving.system import ServingSystem, SystemConfig
from repro.harness.slo import derive_slo
from repro.policies.fairshare import FairShareConfig
from repro.workloads.arrivals import TierMix
from repro.workloads.datasets import get_dataset
from repro.workloads.prefixes import PrefixMix
from repro.workloads.tenants import TenantMix
from repro.workloads.trace import Trace, generate_trace

SYSTEM_NAMES = (
    "windserve",
    "windserve-no-split",
    "windserve-no-resche",
    "windserve-static",
    "distserve",
    "vllm",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one measurement point."""

    system: str
    model: str
    dataset: str
    rate_per_gpu: float
    num_requests: int = 500
    seed: int = 0
    prefill_parallel: tuple[int, int] = (2, 1)  # (tp, pp)
    decode_parallel: tuple[int, int] = (2, 1)
    num_node_gpus: int = 8
    slo: Optional[SLO] = None  # None -> derive via the paper's rule
    ws_config: Optional[WindServeConfig] = None
    instance_config: InstanceConfig = field(default_factory=InstanceConfig)
    decode_instance_config: Optional[InstanceConfig] = None
    gpu: GPUSpec = A800_80GB
    arrival_process: str = "poisson"
    burstiness_cv: float = 2.0
    resilience: Optional[ResilienceConfig] = None  # None -> defaults
    tier_mix: Optional[str] = None  # e.g. "interactive=0.2,standard=0.5,best_effort=0.3"
    # Shared-prefix population, e.g. "none=0.25,assistant=0.5:384,fewshot=0.25:640"
    prefix_mix: Optional[str] = None
    admission_policy: str = "nested-caps"  # see repro.policies.admission
    # Tenant population, e.g. "acme=0.6,beta=0.25,gamma=0.15"
    tenant_mix: Optional[str] = None
    # Fair-share knobs (weights/SRPT/aging/budgets); used with
    # ``admission_policy="fair-share"``.
    fairshare: Optional[FairShareConfig] = None

    @property
    def prefill_cfg(self) -> ParallelConfig:
        return ParallelConfig(tp=self.prefill_parallel[0], pp=self.prefill_parallel[1])

    @property
    def decode_cfg(self) -> ParallelConfig:
        return ParallelConfig(tp=self.decode_parallel[0], pp=self.decode_parallel[1])

    @property
    def gpus_used(self) -> int:
        return self.prefill_cfg.num_gpus + self.decode_cfg.num_gpus

    def with_rate(self, rate_per_gpu: float) -> "ExperimentSpec":
        return replace(self, rate_per_gpu=rate_per_gpu)

    def with_system(self, system: str) -> "ExperimentSpec":
        return replace(self, system=system)


@dataclass
class ExperimentResult:
    """Outcome of one run."""

    spec: ExperimentSpec
    slo: SLO
    summary: dict
    counters: dict
    utilization: dict
    horizon: float
    metrics: MetricsCollector

    def row(self) -> dict:
        """Flat dict for tabular reports."""
        out = {
            "system": self.spec.system,
            "model": self.spec.model,
            "dataset": self.spec.dataset,
            "rate_per_gpu": self.spec.rate_per_gpu,
        }
        out.update(self.summary)
        return out


def resolve_slo(spec: ExperimentSpec) -> SLO:
    if spec.slo is not None:
        return spec.slo
    return derive_slo(
        get_model(spec.model), get_dataset(spec.dataset), spec.decode_cfg, spec.gpu
    )


def build_system(spec: ExperimentSpec, slo: Optional[SLO] = None) -> ServingSystem:
    """Instantiate the serving system an :class:`ExperimentSpec` describes."""
    if spec.system not in SYSTEM_NAMES:
        raise ValueError(f"unknown system {spec.system!r}; known: {SYSTEM_NAMES}")
    model = get_model(spec.model)
    slo = slo or resolve_slo(spec)
    topology = NodeTopology(gpu=spec.gpu, num_gpus=spec.num_node_gpus)
    config = SystemConfig(
        model=model,
        gpu=spec.gpu,
        slo=slo,
        instance=spec.instance_config,
        decode_instance=spec.decode_instance_config,
        resilience=spec.resilience or ResilienceConfig(),
        admission_policy=spec.admission_policy,
        fairshare=spec.fairshare,
    )

    if spec.system == "vllm":
        parallel = spec.decode_cfg
        replicas = max(1, spec.gpus_used // parallel.num_gpus)
        return VLLMSystem(config, parallel=parallel, num_replicas=replicas, topology=topology)

    placement = plan_pd_placement(topology, spec.prefill_cfg, spec.decode_cfg)
    if spec.system == "distserve":
        return DistServeSystem(config, placement=placement, topology=topology)

    ws = spec.ws_config or WindServeConfig()
    if spec.system == "windserve-no-split":
        ws = replace(ws, sbd_enabled=False)
    elif spec.system == "windserve-no-resche":
        ws = replace(ws, rescheduling_enabled=False)
    elif spec.system == "windserve-static":
        ws = replace(
            ws, dispatch_enabled=False, rescheduling_enabled=False, backup_enabled=False
        )
    return WindServeSystem(config, ws_config=ws, placement=placement, topology=topology)


def generate_workload(spec: ExperimentSpec, gpus: Optional[int] = None) -> Trace:
    """The arrival trace an :class:`ExperimentSpec` describes.

    The total rate follows the paper's linear scaling rule: per-GPU rate x
    the GPUs used (``gpus`` overrides the spec's own count, e.g. a fleet's).
    """
    return generate_trace(
        get_dataset(spec.dataset),
        rate=spec.rate_per_gpu * (gpus or spec.gpus_used),
        num_requests=spec.num_requests,
        seed=spec.seed,
        model=get_model(spec.model),
        arrival_process=spec.arrival_process,
        burstiness_cv=spec.burstiness_cv,
        tier_mix=TierMix.parse(spec.tier_mix) if spec.tier_mix else None,
        prefix_mix=PrefixMix.parse(spec.prefix_mix) if spec.prefix_mix else None,
        tenant_mix=TenantMix.parse(spec.tenant_mix) if spec.tenant_mix else None,
    )


def run_experiment(spec: ExperimentSpec, warmup_fraction: float = 0.05) -> ExperimentResult:
    """Run one measurement point to completion and summarise it."""
    slo = resolve_slo(spec)
    system = build_system(spec, slo)
    metrics = system.run_to_completion(generate_workload(spec))

    # Exclude the cold-start prefix from percentile statistics.
    warmup = int(len(metrics.completed) * warmup_fraction)
    if warmup:
        kept = sorted(metrics.completed, key=lambda r: r.arrival_time)[warmup:]
        trimmed = MetricsCollector()
        trimmed.completed.extend(kept)
        trimmed.counters = metrics.counters
        trimmed.utilization = metrics.utilization
        trimmed.horizon = metrics.horizon
        metrics = trimmed

    return ExperimentResult(
        spec=spec,
        slo=slo,
        summary=metrics.summary(slo),
        counters=dict(metrics.counters),
        utilization={
            name: {
                "compute": sample.compute_utilization(metrics.horizon),
                "memory_bw": sample.io_utilization(metrics.horizon),
            }
            for name, sample in metrics.utilization.items()
        },
        horizon=metrics.horizon,
        metrics=metrics,
    )


def sweep_rates(
    spec: ExperimentSpec, rates_per_gpu: list[float], warmup_fraction: float = 0.05
) -> list[ExperimentResult]:
    """Run the same experiment across a request-rate sweep."""
    return [
        run_experiment(spec.with_rate(rate), warmup_fraction=warmup_fraction)
        for rate in rates_per_gpu
    ]
