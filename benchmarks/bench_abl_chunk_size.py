"""Ablation: chunked-prefill chunk size (the Fig. 8 discussion).

"While reducing the chunk size may decrease single-step decoding costs, it
further increases the prefill cost."  Swept analytically for LLaMA2-70B
(the paper's worked example) and end-to-end for the vLLM baseline.
"""

from __future__ import annotations

from conftest import save_report

from repro.harness.report import format_table
from repro.harness.cell import Cell
from repro.hardware.gpu import A800_80GB
from repro.models.parallelism import ParallelConfig
from repro.models.registry import get_model
from repro.perf.interference import StreamContentionModel
from repro.perf.roofline import LatencyModel
from repro.serving.instance import InstanceConfig

CHUNKS = [128, 256, 512, 1024, 2048]


def run_analytic_sweep():
    model = LatencyModel(get_model("llama2-70b"), A800_80GB, ParallelConfig(tp=2, pp=2))
    scm = StreamContentionModel()
    rows = []
    for chunk in CHUNKS:
        total, step, n = scm.chunked_prefill(model, 2048, chunk, 16, 16 * 2048)
        rows.append(
            {
                "chunk": chunk,
                "chunks": n,
                "prefill total (s)": total,
                "fused step (s)": step,
            }
        )
    return rows


def run_end_to_end_sweep():
    rows = []
    for chunk in (128, 512, 2048):
        result = Cell(
            system="vllm",
            model="opt-13b",
            dataset="sharegpt",
            rate_per_gpu=2.5,
            num_requests=300,
            seed=73,
            instance_config=InstanceConfig(max_batched_tokens=chunk),
        ).run()
        s = result.summary()
        rows.append(
            {
                "chunk": chunk,
                "ttft_p50 (s)": s["ttft_p50"],
                "tpot_p90 (s)": s["tpot_p90"],
                "slo attainment": s["slo_attainment"],
            }
        )
    return rows


def test_chunk_size_analytic_tradeoff(benchmark, output_dir):
    rows = benchmark(run_analytic_sweep)
    totals = [r["prefill total (s)"] for r in rows]
    steps = [r["fused step (s)"] for r in rows]
    # Smaller chunks: longer total prefill, shorter fused steps.
    assert totals == sorted(totals, reverse=True)
    assert steps == sorted(steps)
    rendered = format_table(
        rows, title="Chunk-size trade-off, LLaMA2-70B (paper's Fig 8 example)", precision=4
    )
    save_report(output_dir, "abl_chunk_size_analytic", rows, rendered)


def test_chunk_size_end_to_end(benchmark, output_dir):
    rows = benchmark.pedantic(run_end_to_end_sweep, rounds=1, iterations=1)
    small = next(r for r in rows if r["chunk"] == 128)
    large = next(r for r in rows if r["chunk"] == 2048)
    # Large chunks prioritise TTFT; small chunks protect TPOT.
    assert large["ttft_p50 (s)"] <= small["ttft_p50 (s)"]
    assert small["tpot_p90 (s)"] <= large["tpot_p90 (s)"]
    rendered = format_table(rows, title="Chunk-size trade-off, vLLM end-to-end")
    save_report(output_dir, "abl_chunk_size_e2e", rows, rendered)
