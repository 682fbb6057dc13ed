"""Serving substrate: requests, instances, batching, metrics, placement."""

from repro.serving.request import Phase, Request
from repro.serving.metrics import LatencyStats, MetricsCollector, SLO, percentile
from repro.serving.instance import Instance, InstanceConfig, Lane
from repro.serving.system import ServingSystem, SystemConfig
from repro.serving.placement import Placement, plan_pd_placement, plan_colocated_placement
from repro.serving.disaggregated import DisaggregatedSystem

__all__ = [
    "Phase",
    "Request",
    "LatencyStats",
    "MetricsCollector",
    "SLO",
    "percentile",
    "Instance",
    "InstanceConfig",
    "Lane",
    "ServingSystem",
    "SystemConfig",
    "DisaggregatedSystem",
    "Placement",
    "plan_pd_placement",
    "plan_colocated_placement",
]
