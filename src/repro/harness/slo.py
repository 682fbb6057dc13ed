"""SLO derivation.

The paper sets TPOT SLOs "equal to ~4x the execution time of a decoding
iteration for a request (with a context length equal to the average number
of tokens in the dataset and a batch size of 16) running without prefill
interference", and picks TTFT SLOs empirically per scenario (Table 4).

Our simulator's absolute speeds differ from the authors' SwiftTransformer
backend, so we apply the same *rule*: TPOT SLO = 4x our isolated decode
iteration, and TTFT SLO = TPOT SLO x the paper's TTFT/TPOT ratio for that
(model, dataset) pair.  The published Table 4 values remain available via
``paper_slo`` for reporting.
"""

from __future__ import annotations

from repro.hardware.gpu import GPUSpec, A800_80GB
from repro.models.parallelism import ParallelConfig
from repro.models.spec import ModelSpec
from repro.perf.roofline import LatencyModel
from repro.serving.metrics import SLO
from repro.workloads.datasets import DatasetProfile

# Table 4 of the paper.
PAPER_SLOS: dict[tuple[str, str], SLO] = {
    ("llama2-13b", "longbench"): SLO(ttft=4.0, tpot=0.1),
    ("llama2-70b", "longbench"): SLO(ttft=15.0, tpot=0.5),
    ("opt-13b", "sharegpt"): SLO(ttft=0.25, tpot=0.1),
    ("opt-66b", "sharegpt"): SLO(ttft=0.8, tpot=0.15),
}

SLO_REFERENCE_BATCH = 16
SLO_TPOT_MULTIPLIER = 4.0
DEFAULT_TTFT_TPOT_RATIO = 5.0

def paper_slo(model: ModelSpec, dataset: DatasetProfile) -> SLO:
    """The published Table 4 SLO for a (model, dataset) pair."""
    key = (model.name, dataset.name)
    if key not in PAPER_SLOS:
        raise KeyError(f"paper defines no SLO for {key}")
    return PAPER_SLOS[key]


def ttft_tpot_ratio(model: ModelSpec, dataset: DatasetProfile) -> float:
    """TTFT/TPOT ratio of the published SLOs (falls back to a default)."""
    key = (model.name, dataset.name)
    if key in PAPER_SLOS:
        published = PAPER_SLOS[key]
        return published.ttft / published.tpot
    return DEFAULT_TTFT_TPOT_RATIO


def average_context_tokens(dataset: DatasetProfile, model: ModelSpec) -> int:
    """Mean live context during decode: full prompt + half the output."""
    prompt_avg = min(dataset.prompt_stats[0], model.max_context - 2)
    output_avg = dataset.output_stats[0]
    return min(int(round(prompt_avg + output_avg / 2)), model.max_context)


def derive_slo(
    model: ModelSpec,
    dataset: DatasetProfile,
    decode_parallel: ParallelConfig,
    gpu: GPUSpec = A800_80GB,
) -> SLO:
    """Apply the paper's SLO rule to this simulator's decode latency."""
    latency = LatencyModel(model, gpu, decode_parallel)
    ctx = average_context_tokens(dataset, model)
    iteration = latency.decode(SLO_REFERENCE_BATCH, SLO_REFERENCE_BATCH * ctx).duration
    tpot = SLO_TPOT_MULTIPLIER * iteration
    ttft = ttft_tpot_ratio(model, dataset) * tpot
    return SLO(ttft=ttft, tpot=tpot)

