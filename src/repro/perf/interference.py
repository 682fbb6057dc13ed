"""Prefill/decode co-location interference models.

Three ways to run prefill work alongside an ongoing decode batch on the same
GPUs, matching the paper's Fig. 7/Fig. 8 comparison:

* ``HybridPolicy.REGULAR`` — one fused batch: every decode request's
  iteration takes as long as the whole fused pass (severe TPOT inflation).
* ``HybridPolicy.CHUNKED_PREFILL`` — the prefill is split into chunks fused
  with successive decode iterations: decode iterations inflate mildly but the
  prefill stretches over many iterations (Sarathi/vLLM behaviour).
* ``HybridPolicy.STREAM_DISAGGREGATED`` — WindServe's SBD: prefill and decode
  run concurrently in separate CUDA streams.  Decode (bandwidth-bound) keeps
  nearly its isolated latency; prefill (compute-bound) loses some SMs and the
  dual kernel set doubles weight streaming, so it runs ~1.3-1.7x slower than
  isolated — the Fig. 8 shape.

The SBD contention constants are the DESIGN.md §4 calibration knobs and are
ablated by the ``fig13a_no_split`` claim (:mod:`repro.harness.claims`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.perf.roofline import BatchTiming, LatencyModel


class HybridPolicy(enum.Enum):
    REGULAR = "regular"
    CHUNKED_PREFILL = "chunked-prefill"
    STREAM_DISAGGREGATED = "stream-disaggregated"


@dataclass(frozen=True)
class SBDOutcome:
    """Timing of one SBD co-execution window.

    ``decode_iteration`` is the latency of each decode step while the prefill
    stream is active; ``prefill_duration`` is the wall-clock of the whole
    prefill kernel in its stream.  ``prefill_isolated_timing`` is the
    prefill's pass priced alone, kept whole so the caller need not price it
    again for its compute/IO accounting.
    """

    prefill_duration: float
    decode_iteration: float
    prefill_isolated_timing: BatchTiming
    decode_isolated: float

    @property
    def prefill_isolated(self) -> float:
        return self.prefill_isolated_timing.duration


class StreamContentionModel:
    """Resource-sharing model for concurrent CUDA streams.

    When a compute-bound prefill stream and a bandwidth-bound decode stream
    co-run, each mostly consumes the resource the other spares, but sharing
    is imperfect:

    * the decode stream keeps ``decode_bw_retention`` of its isolated HBM
      bandwidth (prefill GEMMs also touch HBM);
    * the prefill stream keeps ``prefill_compute_retention`` of its isolated
      FLOPs (decode kernels occupy SMs while stalled on memory, and the CTA
      scheduler is not phase-aware — the paper's §7 limitation);
    * running two kernel sets streams the weights twice, an extra IO term the
      paper also calls out in §7 ("doubles the model's I/O overhead").
    """

    def __init__(
        self,
        decode_bw_retention: float = 0.95,
        decode_bw_loss_scale: float = 0.10,
        decode_bw_loss_half_tokens: int = 2048,
        prefill_compute_retention: float = 0.80,
        chunked_prefill_decode_overlap: float = 0.80,
    ) -> None:
        if not 0 < decode_bw_retention <= 1:
            raise ValueError("decode_bw_retention must be in (0, 1]")
        if not 0 < prefill_compute_retention <= 1:
            raise ValueError("prefill_compute_retention must be in (0, 1]")
        if decode_bw_loss_scale < 0 or decode_bw_loss_scale >= decode_bw_retention:
            raise ValueError("decode_bw_loss_scale must be in [0, decode_bw_retention)")
        self.decode_bw_retention = decode_bw_retention
        self.decode_bw_loss_scale = decode_bw_loss_scale
        self.decode_bw_loss_half_tokens = decode_bw_loss_half_tokens
        self.prefill_compute_retention = prefill_compute_retention
        self.chunked_prefill_decode_overlap = chunked_prefill_decode_overlap

    def decode_retention(self, prefill_tokens: int) -> float:
        """Fraction of isolated decode bandwidth kept while a prefill of
        ``prefill_tokens`` co-runs: a bigger prefill stream steals more."""
        if prefill_tokens <= 0:
            return 1.0
        pressure = prefill_tokens / (prefill_tokens + self.decode_bw_loss_half_tokens)
        return self.decode_bw_retention - self.decode_bw_loss_scale * pressure

    # -- stream-based disaggregation ---------------------------------------

    def sbd(
        self,
        model: LatencyModel,
        prefill_tokens: int,
        decode_batch: int,
        decode_sum_context: int,
    ) -> SBDOutcome:
        """Timing when a prefill of ``prefill_tokens`` co-runs with decoding."""
        prefill_timing = model.prefill(prefill_tokens)
        prefill_iso = prefill_timing.duration
        decode_iso = model.decode(decode_batch, decode_sum_context).duration
        if prefill_tokens <= 0:
            return SBDOutcome(0.0, decode_iso, prefill_timing, decode_iso)
        if decode_batch <= 0:
            return SBDOutcome(prefill_iso, 0.0, prefill_timing, 0.0)
        decode_sbd = decode_iso / self.decode_retention(prefill_tokens)
        # Second kernel set streams the weights again: add the weight IO once
        # more as an effective compute-stream stall.
        prefill_sbd = (
            prefill_iso / self.prefill_compute_retention + 0.25 * model.weight_stream_time
        )
        return SBDOutcome(
            prefill_duration=prefill_sbd,
            decode_iteration=decode_sbd,
            prefill_isolated_timing=prefill_timing,
            decode_isolated=decode_iso,
        )

    # -- chunked prefill ----------------------------------------------------

    def chunked_prefill(
        self,
        model: LatencyModel,
        prefill_tokens: int,
        chunk_size: int,
        decode_batch: int,
        decode_sum_context: int,
    ) -> tuple[float, float, int]:
        """Chunked-prefill timing.

        Returns ``(total_prefill_duration, decode_iteration_time, num_chunks)``:
        the prefill completes after ``num_chunks`` fused iterations, each of
        which is also one (inflated) decode step.
        """
        if prefill_tokens <= 0:
            iso = model.decode(decode_batch, decode_sum_context).duration
            return 0.0, iso, 0
        chunk_size = max(1, chunk_size)
        num_chunks = math.ceil(prefill_tokens / chunk_size)
        penalty = 1.0 / self.chunked_prefill_decode_overlap
        total = 0.0
        first_iter = 0.0
        done = 0
        while done < prefill_tokens:
            chunk = min(chunk_size, prefill_tokens - done)
            step = (
                model.hybrid(
                    chunk,
                    decode_batch,
                    decode_sum_context,
                    prefill_prior_context=done,
                ).duration
                * penalty
            )
            if done == 0:
                first_iter = step
            total += step
            done += chunk
        decode_iter = total / num_chunks if num_chunks else first_iter
        return total, decode_iter, num_chunks

    # -- regular hybrid batch -------------------------------------------------

    def regular_hybrid(
        self,
        model: LatencyModel,
        prefill_tokens: int,
        decode_batch: int,
        decode_sum_context: int,
    ) -> BatchTiming:
        """One fused pass; decode requests pay the full fused latency."""
        return model.hybrid(prefill_tokens, decode_batch, decode_sum_context)
