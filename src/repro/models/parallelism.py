"""Tensor / pipeline parallelism partitioning and communication costs.

The paper's placement notation ``[TP-a, PP-b]`` means ``a``-way tensor
parallelism inside each of ``b`` pipeline stages (``a*b`` GPUs per instance).
We model:

* TP: per-GPU FLOPs/IO divided by ``tp`` (with an efficiency knob for kernel
  shrinkage) plus two ring all-reduces per layer over the TP group's link.
* PP: layers split across ``pp`` stages; one batch's latency spans all
  stages, and up to ``pp`` batches are in flight at once (pipelining), which
  the serving engine models as ``pp`` concurrent execution slots.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.spec import ModelSpec

GB = 1024**3

# NCCL kernel launch per collective.
NCCL_LAUNCH_S = 10e-6
# Inter-stage activation link (PCIe Gen4 x16, per direction) and its
# per-hop send/receive overhead.
PP_LINK_GBPS = 32.0
PP_HOP_OVERHEAD_S = 20e-6


@dataclass(frozen=True)
class ParallelConfig:
    """Parallelism degree of one serving instance.

    Attributes:
        tp: Tensor-parallel ways within each pipeline stage.
        pp: Pipeline stages.
        tp_link_gbps: Per-direction bandwidth of the link joining the TP
            group (NVLink bridge for TP-2 pairs on the testbed).
        tp_efficiency: Scaling efficiency of TP kernels (smaller GEMMs run a
            bit below linear speed-up).
    """

    tp: int = 1
    pp: int = 1
    tp_link_gbps: float = 200.0
    tp_efficiency: float = 0.92

    def __post_init__(self) -> None:
        if self.tp < 1 or self.pp < 1:
            raise ValueError("tp and pp must be >= 1")

    @property
    def num_gpus(self) -> int:
        return self.tp * self.pp

    def label(self) -> str:
        return f"TP-{self.tp}, PP-{self.pp}"

    # -- per-GPU work division ------------------------------------------------

    def shard_flops(self, flops: float) -> float:
        """FLOPs each TP rank executes for a batch (whole model)."""
        if self.tp == 1:
            return flops
        return flops / (self.tp * self.tp_efficiency)

    def shard_io_bytes(self, io_bytes: float) -> float:
        """HBM bytes each TP rank moves for a batch (whole model)."""
        if self.tp == 1:
            return io_bytes
        return io_bytes / (self.tp * self.tp_efficiency)

    # -- communication ---------------------------------------------------------

    def tp_allreduce_time(self, spec: ModelSpec, tokens: int) -> float:
        """Time for the TP all-reduces of one full forward pass.

        Two all-reduces per layer (attention output, FFN output), each over a
        ``tokens x H`` FP16 activation, ring algorithm:
        ``2 (tp-1)/tp * bytes / bw`` per all-reduce.
        """
        if self.tp == 1 or tokens == 0:
            return 0.0
        bytes_per_allreduce = tokens * spec.hidden_size * spec.dtype_bytes
        ring_factor = 2 * (self.tp - 1) / self.tp
        per_allreduce = ring_factor * bytes_per_allreduce / (self.tp_link_gbps * GB)
        return 2 * spec.num_layers * (per_allreduce + NCCL_LAUNCH_S)

    def pp_activation_time(
        self, spec: ModelSpec, tokens: int, link_gbps: float = PP_LINK_GBPS
    ) -> float:
        """Time to ship activations between pipeline stages for one pass."""
        if self.pp == 1 or tokens == 0:
            return 0.0
        bytes_per_hop = tokens * spec.hidden_size * spec.dtype_bytes
        per_hop = bytes_per_hop / (link_gbps * GB) + PP_HOP_OVERHEAD_S
        return (self.pp - 1) * per_hop

    # -- memory ----------------------------------------------------------------

    def weight_bytes_per_gpu(self, spec: ModelSpec) -> int:
        """Model weight bytes resident on each GPU of the instance."""
        return int(spec.weight_bytes / self.num_gpus)
