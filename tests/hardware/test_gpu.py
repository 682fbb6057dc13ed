"""Tests for GPU specifications."""

from __future__ import annotations

import pytest

from repro.hardware.gpu import (
    A100_80GB,
    A800_80GB,
    GB,
    GPU_REGISTRY,
    H100_80GB,
    RTX_4090,
    GPUSpec,
    get_gpu,
)


class TestGPUSpecs:
    def test_a800_matches_datasheet(self):
        assert A800_80GB.fp16_tflops == 312.0
        assert A800_80GB.hbm_capacity_gb == 80.0
        # A800's NVLink is capped below the A100's.
        assert A800_80GB.nvlink_gbps < A100_80GB.nvlink_gbps

    def test_effective_flops_below_peak(self):
        assert A800_80GB.effective_flops < A800_80GB.fp16_tflops * 1e12

    def test_effective_bandwidth_below_peak(self):
        assert A800_80GB.effective_bandwidth < A800_80GB.hbm_bandwidth_gbps * GB

    def test_hbm_capacity_bytes(self):
        assert A800_80GB.hbm_capacity_bytes == 80 * GB

    def test_rtx4090_profile_suits_prefill(self):
        """Paper's future-work claim: 4090 = strong compute, weak memory, no NVLink."""
        assert RTX_4090.nvlink_gbps == 0.0
        ratio_4090 = RTX_4090.fp16_tflops / RTX_4090.hbm_bandwidth_gbps
        ratio_a800 = A800_80GB.fp16_tflops / A800_80GB.hbm_bandwidth_gbps
        assert ratio_4090 > ratio_a800

    def test_h100_faster_than_a800(self):
        assert H100_80GB.effective_flops > A800_80GB.effective_flops
        assert H100_80GB.effective_bandwidth > A800_80GB.effective_bandwidth


class TestRegistry:
    def test_lookup_case_insensitive(self):
        assert get_gpu("A800-80GB") is A800_80GB

    def test_unknown_gpu_raises(self):
        with pytest.raises(KeyError, match="unknown GPU"):
            get_gpu("tpu-v5")

    def test_registry_complete(self):
        assert set(GPU_REGISTRY) == {"a800-80gb", "a100-80gb", "h100-80gb", "rtx-4090"}

    def test_specs_are_frozen(self):
        with pytest.raises(AttributeError):
            A800_80GB.fp16_tflops = 1.0  # type: ignore[misc]

    def test_custom_spec(self):
        gpu = GPUSpec("test", 100.0, 1000.0, 40.0)
        assert gpu.effective_flops == 100e12 * gpu.compute_efficiency
