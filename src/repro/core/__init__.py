"""WindServe: the paper's primary contribution.

Public entry points:

* :class:`~repro.core.windserve.WindServeSystem` — the assembled system
  (Global Scheduler + dynamic prefill dispatch + dynamic rescheduling +
  stall-free migration + stream-based disaggregation).
* :class:`~repro.core.config.WindServeConfig` — policy knobs, including the
  ablation switches used by the paper's §5.4 (``colocation_mode="hybrid"``
  -> WindServe-no-split, ``rescheduling_enabled`` -> WindServe-no-resche).
* :class:`~repro.core.profiler.Profiler` — the Global Scheduler's latency
  regression model (§3.2.1).
"""

from repro.core.config import WindServeConfig
from repro.core.profiler import Profiler
from repro.core.coordinator import Coordinator
from repro.core.windserve import WindServeSystem
from repro.core.fleet import ServingFleet, build_windserve_fleet
from repro.core.autoscaler import AutoscalerConfig, AutoscalingFleet

__all__ = [
    "AutoscalerConfig",
    "AutoscalingFleet",
    "WindServeConfig",
    "Profiler",
    "Coordinator",
    "WindServeSystem",
    "ServingFleet",
    "build_windserve_fleet",
]
