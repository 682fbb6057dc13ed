"""Workload generation: length distributions, arrivals, trace containers."""

from repro.workloads.distributions import LengthDistribution, fitted_lognormal
from repro.workloads.datasets import (
    DATASET_REGISTRY,
    DatasetProfile,
    SHAREGPT,
    LONGBENCH,
    get_dataset,
)
from repro.workloads.arrivals import gamma_arrivals, poisson_arrivals
from repro.workloads.prefixes import PrefixEntry, PrefixLibrary, PrefixMix
from repro.workloads.tenants import TenantMix
from repro.workloads.trace import Trace, generate_trace
from repro.workloads.shifts import WorkloadPhase, generate_shifting_trace

__all__ = [
    "LengthDistribution",
    "fitted_lognormal",
    "DATASET_REGISTRY",
    "DatasetProfile",
    "SHAREGPT",
    "LONGBENCH",
    "get_dataset",
    "poisson_arrivals",
    "gamma_arrivals",
    "PrefixEntry",
    "PrefixLibrary",
    "PrefixMix",
    "TenantMix",
    "Trace",
    "generate_trace",
    "WorkloadPhase",
    "generate_shifting_trace",
]
