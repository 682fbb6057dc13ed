"""GPU device specifications.

Peak numbers come from vendor datasheets; the ``*_efficiency`` fields encode
the achievable fraction of peak for the two regimes that matter to LLM
serving (compute-bound prefill GEMMs, bandwidth-bound decode).  They are the
calibration constants referenced by DESIGN.md §4.
"""

from __future__ import annotations

from dataclasses import dataclass


GB = 1024**3
TFLOP = 1e12


@dataclass(frozen=True)
class GPUSpec:
    """Static description of one GPU device.

    Attributes:
        name: Human-readable device name.
        fp16_tflops: Peak dense FP16 tensor-core throughput (TFLOPs).
        hbm_bandwidth_gbps: Peak HBM bandwidth in GB/s (GB = 2**30 bytes).
        hbm_capacity_gb: Usable global-memory capacity in GB.
        compute_efficiency: Achievable fraction of peak FLOPs for large
            prefill GEMMs (model-FLOPs utilisation).
        memory_efficiency: Achievable fraction of peak bandwidth for decode
            (attention + weight streaming).
        pcie_gbps: Per-direction PCIe bandwidth in GB/s.
        nvlink_gbps: Per-direction NVLink bandwidth in GB/s (0 when absent).
    """

    name: str
    fp16_tflops: float
    hbm_bandwidth_gbps: float
    hbm_capacity_gb: float
    compute_efficiency: float = 0.55
    memory_efficiency: float = 0.80
    pcie_gbps: float = 32.0
    nvlink_gbps: float = 0.0

    @property
    def effective_flops(self) -> float:
        """Achievable FLOP/s for compute-bound kernels."""
        return self.fp16_tflops * TFLOP * self.compute_efficiency

    @property
    def effective_bandwidth(self) -> float:
        """Achievable bytes/s for bandwidth-bound kernels."""
        return self.hbm_bandwidth_gbps * GB * self.memory_efficiency

    @property
    def hbm_capacity_bytes(self) -> int:
        return int(self.hbm_capacity_gb * GB)


# The paper's testbed GPU.  A800 is the export variant of the A100: identical
# compute/HBM, NVLink capped at 400 GB/s bidirectional (200 GB/s per
# direction).  PCIe Gen4 x16: 64 GB/s bidirectional -> 32 GB/s per direction.
A800_80GB = GPUSpec(
    name="NVIDIA A800-80GB",
    fp16_tflops=312.0,
    hbm_bandwidth_gbps=2039.0 / 1.073741824,  # 2039 GB(SI)/s expressed in GiB/s
    hbm_capacity_gb=80.0,
    pcie_gbps=32.0,
    nvlink_gbps=200.0,
)

A100_80GB = GPUSpec(
    name="NVIDIA A100-80GB",
    fp16_tflops=312.0,
    hbm_bandwidth_gbps=2039.0 / 1.073741824,
    hbm_capacity_gb=80.0,
    pcie_gbps=32.0,
    nvlink_gbps=300.0,
)

H100_80GB = GPUSpec(
    name="NVIDIA H100-80GB",
    fp16_tflops=989.0,
    hbm_bandwidth_gbps=3350.0 / 1.073741824,
    hbm_capacity_gb=80.0,
    pcie_gbps=64.0,
    nvlink_gbps=450.0,
)

# Consumer card the paper's Future Work section proposes for prefill
# instances in heterogeneous clusters: strong compute, weak memory, no NVLink.
RTX_4090 = GPUSpec(
    name="NVIDIA RTX 4090",
    fp16_tflops=165.0,
    hbm_bandwidth_gbps=1008.0 / 1.073741824,
    hbm_capacity_gb=24.0,
    pcie_gbps=32.0,
    nvlink_gbps=0.0,
)

GPU_REGISTRY: dict[str, GPUSpec] = {
    "a800-80gb": A800_80GB,
    "a100-80gb": A100_80GB,
    "h100-80gb": H100_80GB,
    "rtx-4090": RTX_4090,
}


def get_gpu(name: str) -> GPUSpec:
    """Look up a GPU spec by registry key (case-insensitive)."""
    key = name.lower()
    if key not in GPU_REGISTRY:
        raise KeyError(f"unknown GPU {name!r}; known: {sorted(GPU_REGISTRY)}")
    return GPU_REGISTRY[key]


def gpu_key(spec: GPUSpec) -> str:
    """Reverse lookup: the registry key of a spec (billing namespaces).

    Custom specs that are not registered fall back to a slug of their
    device name, so per-type accounting still gets a stable key.
    """
    for key, known in GPU_REGISTRY.items():
        if known == spec:
            return key
    return spec.name.lower().replace(" ", "-")
