"""WindServe reproduction.

A discrete-event-simulated reproduction of *WindServe: Efficient
Phase-Disaggregated LLM Serving with Stream-based Dynamic Scheduling*
(ISCA 2025), including the DistServe and vLLM baselines it compares
against, the A800 testbed hardware model, and the full experiment harness.

Quickstart::

    from repro import Cell

    cell = Cell(
        system="windserve", model="opt-13b", dataset="sharegpt",
        rate_per_gpu=4.0, num_requests=500,
    )
    run = cell.run()
    print(run.summary())
"""

from repro.core import WindServeConfig, WindServeSystem
from repro.baselines import DistServeSystem, VLLMSystem
from repro.harness import (
    Cell,
    CellRun,
    build_system,
    derive_slo,
    format_table,
    paper_slo,
    search_placement,
)
from repro.hardware import A800_80GB, GPUSpec, NodeTopology
from repro.models import MODEL_REGISTRY, ModelSpec, ParallelConfig, get_model
from repro.serving import SLO, Request, SystemConfig
from repro.workloads import DATASET_REGISTRY, get_dataset, generate_trace

__version__ = "0.1.0"

__all__ = [
    "WindServeSystem",
    "WindServeConfig",
    "DistServeSystem",
    "VLLMSystem",
    "Cell",
    "CellRun",
    "build_system",
    "search_placement",
    "derive_slo",
    "paper_slo",
    "format_table",
    "A800_80GB",
    "GPUSpec",
    "NodeTopology",
    "ModelSpec",
    "ParallelConfig",
    "MODEL_REGISTRY",
    "get_model",
    "SLO",
    "Request",
    "SystemConfig",
    "DATASET_REGISTRY",
    "get_dataset",
    "generate_trace",
    "__version__",
]
