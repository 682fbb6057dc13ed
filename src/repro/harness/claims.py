"""The paper's tables, figures and claims as one declared table.

Each :class:`Claim` is one table of the reproduction's evaluation: a
``rows()`` producer (most sweep :class:`~repro.harness.cell.Cell` s, each
of which must keep the shared invariant suite), the title and precision it
renders with, and named :class:`Verdict` checks over its rows.
:data:`CLAIMS` lists them in paper order — tables, figures, ablations,
then extensions — and that order is the render order.  The extensions end
with the side-by-side comparisons of :mod:`repro.harness.experiments`
(differential, faults, prefix caching, tenancy, mixed-hardware fleets).

Three readers: :func:`render` produces ``RESULTS.md``; ``repro claims
[ID ...]`` prints the render of every (or each named) claim and exits 1
when a check fails; tier-1's ``tests/integration/test_claims.py`` runs
every check and asserts the committed ``RESULTS.md`` equals a fresh
render.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Mapping, Optional, Union

import numpy as np

from repro.baselines.distserve import DistServeSystem
from repro.baselines.replanning import ReplanningDistServeSystem
from repro.core.autoscaler import AutoscalerConfig, AutoscalingFleet
from repro.core.config import WindServeConfig
from repro.core.fleet import build_windserve_fleet
from repro.core.windserve import WindServeSystem
from repro.hardware.cluster import ClusterTopology
from repro.hardware.gpu import A800_80GB, RTX_4090
from repro.hardware.topology import NodeTopology
from repro.harness import experiments
from repro.harness.capacity import find_capacity
from repro.harness.cell import Cell, CellRun, Workload
from repro.harness.invariants import check_run
from repro.harness.placement_search import search_placement
from repro.harness.report import format_table
from repro.harness.slo import PAPER_SLOS, derive_slo
from repro.models.costs import (
    attn_flops_decode,
    attn_flops_prefill,
    ffn_flops_decode,
    ffn_flops_prefill,
    layer_io_bytes_decode,
    layer_io_bytes_prefill,
)
from repro.models.parallelism import ParallelConfig
from repro.models.registry import OPT_13B, get_model
from repro.perf.interference import StreamContentionModel
from repro.perf.roofline import LatencyModel
from repro.serving.instance import InstanceConfig
from repro.serving.metrics import MetricsCollector
from repro.serving.placement import Placement, plan_pd_placement
from repro.serving.system import SystemConfig
from repro.sim.random import RandomStreams
from repro.workloads.datasets import LONGBENCH, SHAREGPT, get_dataset
from repro.workloads.shifts import WorkloadPhase, generate_shifting_trace
from repro.workloads.trace import generate_trace

Rows = list[dict]


@dataclass(frozen=True)
class Verdict:
    """A named check over a claim's rows; missing evidence means it fails."""

    name: str
    claim: str
    holds: Callable[[Rows], bool]

    def check(self, rows: Rows) -> bool:
        try:
            return bool(self.holds(rows))
        except KeyError:
            return False


@dataclass(frozen=True)
class Claim:
    """One table of the evaluation and the checks its rows must pass."""

    id: str
    title: str
    rows: Callable[[], Rows]
    checks: tuple[Verdict, ...]
    precision: int = 3

    def table(self, rows: Rows) -> str:
        return format_table(rows, title=self.title, precision=self.precision)

    def verdicts(self, rows: Rows) -> dict[str, bool]:
        return {check.name: check.check(rows) for check in self.checks}


# -- producers -------------------------------------------------------------------

#: A column is a :meth:`CellRun.summary` key or a function of the run.
Column = Union[str, Callable[[CellRun], Any]]


def clean_run(cell: Cell, workload: Optional[Workload] = None) -> CellRun:
    """Run ``cell``; a claim's evidence must keep the invariant suite."""
    run = cell.run(workload)
    if run.violations:
        raise AssertionError(f"invariant violations in {cell.meta()}: {run.violations}")
    return run


def checked_run(target, trace) -> MetricsCollector:
    """Drain ``trace`` through a hand-built system or fleet; like
    :func:`clean_run`, the run must keep the invariant suite."""
    submitted = list(trace)
    metrics = target.run_to_completion(submitted)
    violations = check_run(target, submitted)
    if violations:
        raise AssertionError(f"invariant violations in {type(target).__name__}: {violations}")
    return metrics


def sweep(points: Iterable[tuple[dict, Cell]], columns: Mapping[str, Column]) -> Rows:
    """One row per (labels, cell) point: the labels, then each column."""
    rows = []
    for labels, cell in points:
        run = clean_run(cell)
        summary = run.summary()
        rows.append(
            {
                **labels,
                **{
                    name: summary[key] if isinstance(key, str) else key(run)
                    for name, key in columns.items()
                },
            }
        )
    return rows


def compare_runs(
    cells: Mapping[str, Cell],
    fields: Callable[[CellRun, list[CellRun]], dict] = lambda run, runs: {},
    workloads: Mapping[str, Workload] = {},
) -> Rows:
    """One row per labelled cell, run on ``workloads[label]`` if given.

    A row is the label, the run's request counts and ``fields(run, runs
    before it)``, then its workload digest and fingerprint as 12-hex
    prefixes.
    """
    runs, rows = [], []
    for label, cell in cells.items():
        run = clean_run(cell, workloads.get(label))
        rows.append(
            {
                "run": label,
                "submitted": len(run.submitted),
                "completed": len(run.metrics.completed),
                "shed": len(run.metrics.shed),
                **fields(run, runs),
                "workload": run.workload.digest()[:12],
                "fingerprint": run.fingerprint.value[:12],
            }
        )
        runs.append(run)
    return rows


def grid(base: Cell, rates: Iterable[float], systems: tuple[str, ...]):
    """``rate/gpu`` x ``system`` points over ``base``, rate-major."""
    return (
        ({"rate/gpu": rate, "system": system}, replace(base, rate_per_gpu=rate, system=system))
        for rate in rates
        for system in systems
    )


def counter(name: str) -> Callable[[CellRun], int]:
    return lambda run: run.metrics.counters.get(name, 0)


def secs(*keys: str) -> dict[str, str]:
    """``<key> (s)`` columns for latency summary keys."""
    return {f"{key} (s)": key for key in keys}


SLO = {"slo attainment": "slo_attainment"}
ATTAINMENT = {**SLO, "ttft attainment": "ttft_attainment", "tpot attainment": "tpot_attainment"}
DISPATCHED = {"dispatched": counter("dispatched_prefill")}

SYSTEMS = experiments.SYSTEMS
OPT13_CHAT = Cell(model="opt-13b", dataset="sharegpt")


# -- check helpers ---------------------------------------------------------------


def row(rows: Rows, **match) -> dict:
    """The first row whose columns equal ``match``; none fails the check."""
    for candidate in rows:
        if all(candidate.get(key) == value for key, value in match.items()):
            return candidate
    raise KeyError(match)


def by(rows: Rows, column: str) -> dict[Any, dict]:
    return {r[column]: r for r in rows}


def top(rows: Rows, system: str) -> dict:
    """``system``'s row at the highest rate."""
    return row(rows, system=system, **{"rate/gpu": max(r["rate/gpu"] for r in rows)})


def ratio(rows: Rows, column: str, num: str, den: str) -> float:
    return row(rows, system=num)[column] / row(rows, system=den)[column]


def close(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * abs(expected)


# -- paper tables ----------------------------------------------------------------


def _tab01_rows() -> Rows:
    h = OPT_13B.hidden_size
    n, b, sum_l = 1024, 16, 16 * 1024
    return [
        {
            "module": "Attn",
            "prefill FLOPs (model)": attn_flops_prefill(OPT_13B, n),
            "prefill FLOPs (paper 8NH^2+4N^2H)": 8 * n * h**2 + 4 * n**2 * h,
            "decode FLOPs (model)": attn_flops_decode(OPT_13B, b, sum_l),
            "decode FLOPs (paper 8BH^2+4sLH)": 8 * b * h**2 + 4 * sum_l * h,
        },
        {
            "module": "FFN",
            "prefill FLOPs (model)": ffn_flops_prefill(OPT_13B, n),
            "prefill FLOPs (paper 8NH^2+4N^2H)": 16 * n * h**2,
            "decode FLOPs (model)": ffn_flops_decode(OPT_13B, b),
            "decode FLOPs (paper 8BH^2+4sLH)": 16 * b * h**2,
        },
        {
            "module": "IO/layer (bytes)",
            "prefill FLOPs (model)": layer_io_bytes_prefill(OPT_13B, n),
            "prefill FLOPs (paper 8NH^2+4N^2H)": None,
            "decode FLOPs (model)": layer_io_bytes_decode(OPT_13B, b, sum_l),
            "decode FLOPs (paper 8BH^2+4sLH)": 24 * h**2 + sum_l * 4 * h,
        },
    ]


def _tab02_rows(n: int = 100_000) -> Rows:
    rows = []
    for dataset in (SHAREGPT, LONGBENCH):
        streams = RandomStreams(0)
        prompts = dataset.prompt.sample(streams.get("p"), n)
        outputs = dataset.output.sample(streams.get("o"), n)
        rows.append(
            {
                "dataset": dataset.name,
                "prompt avg": prompts.mean(),
                "prompt med": float(np.median(prompts)),
                "prompt P90": float(np.percentile(prompts, 90)),
                "output avg": outputs.mean(),
                "output med": float(np.median(outputs)),
                "output P90": float(np.percentile(outputs, 90)),
                "paper prompt (avg/med/P90)": "/".join(map(str, dataset.prompt_stats)),
                "paper output (avg/med/P90)": "/".join(map(str, dataset.output_stats)),
            }
        )
    return rows


def _matches_paper(column: str, stats: str, index: int, rel: float) -> Callable[[Rows], bool]:
    """Each dataset's ``column`` is within ``rel`` of its published moment."""
    return lambda rows: all(
        close(r[column], getattr(dataset, stats)[index], rel)
        for r, dataset in zip(rows, (SHAREGPT, LONGBENCH), strict=True)
    )


#: Table 3's choice for OPT-13B/ShareGPT.
PAPER_PLACEMENT = "[TP-2, PP-1 | TP-2, PP-1]"


def _tab03_rows() -> Rows:
    scores = search_placement(
        system="distserve",
        model="opt-13b",
        dataset="sharegpt",
        rate_per_gpu=1.5,
        num_requests=200,
        candidates=(
            ((1, 1), (1, 1)),
            ((2, 1), (1, 1)),
            ((1, 1), (2, 1)),
            ((2, 1), (2, 1)),
            ((2, 2), (2, 1)),
            ((2, 1), (2, 2)),
        ),
    )
    return [
        {
            "placement": s.label(),
            "gpus": s.gpus_used,
            "slo attainment": s.slo_attainment,
            "goodput/gpu": s.goodput_per_gpu,
        }
        for s in scores
    ]


TAB04_SCENARIOS = [
    ("llama2-13b", "longbench", ParallelConfig(tp=2)),
    ("llama2-70b", "longbench", ParallelConfig(tp=2, pp=2)),
    ("opt-13b", "sharegpt", ParallelConfig(tp=2)),
    ("opt-66b", "sharegpt", ParallelConfig(tp=2, pp=2)),
]


def _tab04_rows() -> Rows:
    rows = []
    for model_name, dataset_name, parallel in TAB04_SCENARIOS:
        model, dataset = get_model(model_name), get_dataset(dataset_name)
        derived = derive_slo(model, dataset, parallel)
        published = PAPER_SLOS[(model_name, dataset_name)]
        rows.append(
            {
                "model": model_name,
                "attention": "GQA" if model.uses_gqa else "MHA",
                "dataset": dataset_name,
                "derived TTFT (s)": derived.ttft,
                "derived TPOT (s)": derived.tpot,
                "paper TTFT (s)": published.ttft,
                "paper TPOT (s)": published.tpot,
            }
        )
    return rows


def _slo_ratio(r: dict) -> float:
    return r["derived TTFT (s)"] / r["derived TPOT (s)"]


TABLES = (
    Claim(
        "tab01_cost_model",
        "Table 1 - per-layer overheads, OPT-13B (N=1024, B=16, sum L=16K)",
        _tab01_rows,
        (
            Verdict(
                "prefill_flops_match",
                "the model's Attn and FFN prefill FLOPs equal the paper's formulas",
                lambda rows: all(
                    r["prefill FLOPs (model)"] == r["prefill FLOPs (paper 8NH^2+4N^2H)"]
                    for r in rows[:2]
                ),
            ),
            Verdict(
                "decode_flops_match",
                "the model's Attn and FFN decode FLOPs equal the paper's formulas",
                lambda rows: all(
                    r["decode FLOPs (model)"] == r["decode FLOPs (paper 8BH^2+4sLH)"]
                    for r in rows[:2]
                ),
            ),
        ),
        precision=0,
    ),
    Claim(
        "tab02_datasets",
        "Table 2 - generated dataset statistics",
        _tab02_rows,
        (
            Verdict(
                "prompt_median",
                "prompt median within 6% of the paper's",
                _matches_paper("prompt med", "prompt_stats", 1, 0.06),
            ),
            Verdict(
                "prompt_p90",
                "prompt P90 within 10% of the paper's",
                _matches_paper("prompt P90", "prompt_stats", 2, 0.10),
            ),
            Verdict(
                "prompt_mean",
                "prompt mean within 12% of the paper's",
                _matches_paper("prompt avg", "prompt_stats", 0, 0.12),
            ),
            Verdict(
                "output_median",
                "output median within 25% of the paper's",
                _matches_paper("output med", "output_stats", 1, 0.25),
            ),
        ),
        precision=1,
    ),
    Claim(
        "tab03_placement",
        "Table 3 - placement ranking (OPT-13B/ShareGPT @ 1.5 req/s/GPU); "
        f"paper chose {PAPER_PLACEMENT}",
        _tab03_rows,
        (
            Verdict("ranked", "the placement search ranks every candidate", bool),
            Verdict(
                "paper_in_top4",
                "the paper's placement ranks in the top 4 of 6 (our per-GPU "
                "normalisation slightly favours smaller deployments)",
                lambda rows: PAPER_PLACEMENT in [r["placement"] for r in rows[:4]],
            ),
            Verdict(
                "paper_competitive",
                "the paper's placement reaches at least 0.6x the best SLO attainment",
                lambda rows: row(rows, placement=PAPER_PLACEMENT)["slo attainment"]
                >= 0.6 * rows[0]["slo attainment"],
            ),
        ),
    ),
    Claim(
        "tab04_slos",
        "Table 4 - SLOs (derived by the paper's rule vs published)",
        _tab04_rows,
        (
            Verdict(
                "opt66b_tpot_above_opt13b",
                "OPT-66B's derived TPOT SLO exceeds OPT-13B's",
                lambda rows: row(rows, model="opt-66b")["derived TPOT (s)"]
                > row(rows, model="opt-13b")["derived TPOT (s)"],
            ),
            Verdict(
                "llama70b_tpot_above_llama13b",
                "LLaMA2-70B's derived TPOT SLO exceeds LLaMA2-13B's",
                lambda rows: row(rows, model="llama2-70b")["derived TPOT (s)"]
                > row(rows, model="llama2-13b")["derived TPOT (s)"],
            ),
            Verdict(
                "summarisation_ttft_looser",
                "summarisation keeps a far looser TTFT/TPOT ratio than chatbot",
                lambda rows: _slo_ratio(row(rows, model="llama2-13b"))
                > _slo_ratio(row(rows, model="opt-13b")),
            ),
        ),
    ),
)


# -- paper figures ---------------------------------------------------------------

#: The 4.5 req/s/GPU headline cells, past DistServe's knee on OPT-13B/ShareGPT.
HEADLINE = replace(OPT13_CHAT, rate_per_gpu=4.5, num_requests=400, seed=7)
#: The decode-bound [TP-2 | TP-1] variant of the headline cells.
PRESSURE = replace(HEADLINE, decode_parallel=(1, 1), rate_per_gpu=3.5, num_requests=300)
HEADLINE_COLUMNS = {
    **secs("ttft_p50", "tpot_p90", "tpot_p99"),
    "mean decode queue delay (s)": "mean_decode_queue_delay",
    "swap events": "swap_events",
    **SLO,
}


def compare(base: Cell, systems: Iterable[str]) -> Rows:
    """One row per system on ``base``'s cell."""
    return sweep(
        (({"system": s}, replace(base, system=s)) for s in systems), HEADLINE_COLUMNS
    )


FIG01 = replace(OPT13_CHAT, system="distserve", num_requests=500, seed=17)
FIG01_RATES = [3.0, 4.0, 5.0, 6.0]


def _fig01b_series(system: str) -> Callable[[Rows], list[float]]:
    return lambda rows: [r["slo attainment"] for r in rows if r["system"] == system]


FIG02_SCENARIOS = [
    ("opt-13b", (2, 1), (2, 1), 2.5),
    ("opt-66b", (2, 2), (2, 2), 1.0),
]


def _utilization(run: CellRun) -> dict:
    metrics = run.metrics
    prefill, decode = metrics.utilization["prefill"], metrics.utilization["decode"]
    return {
        "Tensor Core(P)": prefill.compute_utilization(metrics.horizon),
        "Mem BW(P)": prefill.io_utilization(metrics.horizon),
        "Tensor Core(D)": decode.compute_utilization(metrics.horizon),
        "Mem BW(D)": decode.io_utilization(metrics.horizon),
    }


def _fig02_rows() -> Rows:
    rows = []
    for model, prefill, decode, rate in FIG02_SCENARIOS:
        run = clean_run(
            replace(
                OPT13_CHAT,
                system="distserve",
                model=model,
                rate_per_gpu=rate,
                num_requests=400,
                seed=23,
                prefill_parallel=prefill,
                decode_parallel=decode,
            )
        )
        rows.append({"model": model, **_utilization(run)})
    return rows


def _prefill_queuing(run: CellRun) -> float:
    completed = run.metrics.after_warmup(0.05).completed
    delays = [
        r.prefill_start - r.arrival_time
        for r in completed
        if r.prefill_start is not None and not r.dispatched_prefill
    ]
    return float(np.mean(delays)) if delays else 0.0


FIG03_RATE = 4.0
FIG03_CONFIGS = [
    ("[TP-2 | TP-1]", (2, 1), (1, 1)),
    ("[TP-2 | TP-2]", (2, 1), (2, 1)),
]

FIG05_FRACTIONS = [0.1, 0.3, 0.6, 0.9, 1.5, 3.0]
FIG05_SCENARIOS = [
    ("opt-13b", "sharegpt", 4.0),
    ("llama2-13b", "longbench", 1.5),
]


def _fig05_holds(holds: Callable[[dict], bool]) -> Callable[[Rows], bool]:
    """``holds`` over each scenario's threshold -> row map."""
    return lambda rows: all(
        holds(by([r for r in rows if r["scenario"] == f"{m}/{d}"], "thrd / TTFT-SLO"))
        for m, d, _rate in FIG05_SCENARIOS
    )


FIG08_MODELS = [
    ("opt-13b", ParallelConfig(tp=2)),
    ("opt-66b", ParallelConfig(tp=2, pp=2)),
    ("llama2-13b", ParallelConfig(tp=2)),
    ("llama2-70b", ParallelConfig(tp=2, pp=2)),
]
FIG08_PREFILL_TOKENS = [256, 512, 1024, 2048]
DECODE_BATCH = 16
DECODE_CONTEXT = 2048


def _fig08_rows() -> Rows:
    scm = StreamContentionModel()
    rows = []
    for name, parallel in FIG08_MODELS:
        model = LatencyModel(get_model(name), A800_80GB, parallel)
        iso_decode = model.decode(DECODE_BATCH, DECODE_BATCH * DECODE_CONTEXT).duration
        for tokens in FIG08_PREFILL_TOKENS:
            regular = scm.regular_hybrid(
                model, tokens, DECODE_BATCH, DECODE_BATCH * DECODE_CONTEXT
            ).duration
            sbd = scm.sbd(model, tokens, DECODE_BATCH, DECODE_BATCH * DECODE_CONTEXT)
            rows.append(
                {
                    "model": name,
                    "prefill tokens": tokens,
                    "Regular decode+prefill pass (s)": regular,
                    "SBD decode iter (s)": sbd.decode_iteration,
                    "SBD prefill (s)": sbd.prefill_duration,
                    "isolated decode (s)": iso_decode,
                    "isolated prefill (s)": sbd.prefill_isolated,
                }
            )
    return rows


REGULAR = "Regular decode+prefill pass (s)"

FIG10_COLUMNS = {**secs("ttft_p50", "ttft_p99", "tpot_p90", "tpot_p99"), "slo": "slo_attainment"}


def _fig10_panel(claim_id: str, panel: str, model: str, dataset: str, parallel, rates) -> Claim:
    base = replace(
        OPT13_CHAT,
        model=model,
        dataset=dataset,
        num_requests=400,
        seed=37,
        prefill_parallel=parallel[0],
        decode_parallel=parallel[1],
    )
    return Claim(
        claim_id,
        f"Fig {panel}: end-to-end latency vs per-GPU rate",
        lambda: sweep(grid(base, rates, SYSTEMS), FIG10_COLUMNS),
        (
            Verdict(
                "ttft_p50_gain",
                "WindServe's TTFT median beats DistServe's at the highest rate by >= 1.3x",
                lambda rows: top(rows, "distserve")["ttft_p50 (s)"]
                / top(rows, "windserve")["ttft_p50 (s)"]
                >= 1.3,
            ),
            Verdict(
                "tpot_p99_bounded",
                "WindServe's TPOT P99 is within 1.3x of DistServe's at the highest rate "
                "(the paper reports a slight OPT-66B TPOT increase from SBD overhead)",
                lambda rows: top(rows, "windserve")["tpot_p99 (s)"]
                <= 1.3 * top(rows, "distserve")["tpot_p99 (s)"],
            ),
            Verdict(
                "slo_wins",
                "WindServe's SLO attainment is no worse than DistServe's at the highest rate",
                lambda rows: top(rows, "windserve")["slo"] >= top(rows, "distserve")["slo"],
            ),
        ),
        precision=4,
    )


def _fig11(claim_id: str, scenario: str, model: str, dataset: str, rates) -> Claim:
    base = replace(OPT13_CHAT, model=model, dataset=dataset, num_requests=400, seed=41)
    return Claim(
        claim_id,
        f"Fig {scenario}: SLO attainment vs rate",
        lambda: sweep(grid(base, rates, SYSTEMS), ATTAINMENT),
        (
            Verdict(
                "windserve_1p5x_baselines",
                "WindServe's SLO attainment is >= 1.5x both baselines' at the highest rate",
                lambda rows: top(rows, "windserve")["slo attainment"]
                >= 1.5
                * max(
                    top(rows, "distserve")["slo attainment"],
                    top(rows, "vllm")["slo attainment"],
                    0.01,
                ),
            ),
        ),
    )


FIG12 = replace(OPT13_CHAT, num_requests=400, seed=43)
FIG12_COLUMNS = {**ATTAINMENT, **DISPATCHED, "rescheduled": counter("reschedule_completed")}


def _fig12_rows(decode_parallel: tuple[int, int], rates: list[float]) -> Callable[[], Rows]:
    base = replace(FIG12, decode_parallel=decode_parallel)
    return lambda: sweep(grid(base, rates, ("windserve", "distserve")), FIG12_COLUMNS)


def _beats(column: str) -> Callable[[Rows], bool]:
    """WindServe's ``column`` beats DistServe's at the highest rate."""
    return lambda rows: top(rows, "windserve")[column] > top(rows, "distserve")[column]


FIG13 = replace(OPT13_CHAT, system="windserve", num_requests=400, seed=47)


def _fig13_rows(base: Cell, ablated: str, rates, columns) -> Callable[[], Rows]:
    return lambda: sweep(
        (
            ({"system": system, "rate/gpu": rate}, replace(base, system=system, rate_per_gpu=rate))
            for system in ("windserve", ablated)
            for rate in rates
        ),
        columns,
    )


FIGURES = (
    Claim(
        "headline",
        "Headline - OPT-13B/ShareGPT @ 4.5 req/s/GPU (abstract; Figs 10, 11, 13)",
        lambda: compare(HEADLINE, (*SYSTEMS, "windserve-no-split")),
        (
            Verdict(
                "ttft_p50_gain",
                "DistServe/WindServe TTFT median >= 1.65x, the low end of the paper's "
                "1.65-4.28x (open-loop queueing makes the exact factor scale-sensitive)",
                lambda rows: ratio(rows, "ttft_p50 (s)", "distserve", "windserve") >= 1.65,
            ),
            Verdict(
                "tpot_p99_gain",
                "DistServe/WindServe TPOT P99 >= 1.2x (paper: ~1.5x)",
                lambda rows: ratio(rows, "tpot_p99 (s)", "distserve", "windserve") >= 1.2,
            ),
            Verdict(
                "slo_1p5x_baselines",
                "WindServe's SLO attainment is >= 1.5x both baselines' (Fig 11)",
                lambda rows: row(rows, system="windserve")["slo attainment"]
                >= 1.5
                * max(
                    row(rows, system="distserve")["slo attainment"],
                    row(rows, system="vllm")["slo attainment"],
                    0.01,
                ),
            ),
            Verdict(
                "no_split_hurts_tpot",
                "Fig 13: WindServe's TPOT P99 is below no-split's",
                lambda rows: row(rows, system="windserve")["tpot_p99 (s)"]
                < row(rows, system="windserve-no-split")["tpot_p99 (s)"],
            ),
            Verdict(
                "no_split_minimal_ttft_impact",
                "Fig 13: no-split's TTFT median is <= 3x WindServe's ('both technologies have "
                "minimal impact on TTFT')",
                lambda rows: row(rows, system="windserve-no-split")["ttft_p50 (s)"]
                <= 3 * row(rows, system="windserve")["ttft_p50 (s)"],
            ),
        ),
        precision=4,
    ),
    Claim(
        "fig01a_motivation",
        "Fig 1a - DistServe decode queuing & swapping vs rate "
        "(decode-memory-pressured deployment)",
        lambda: sweep(
            (
                ({"rate/gpu": rate}, replace(FIG01, rate_per_gpu=rate, decode_parallel=(1, 1)))
                for rate in FIG01_RATES
            ),
            {
                "mean decode queue delay (s)": "mean_decode_queue_delay",
                "swap events": "swap_events",
                **secs("tpot_p99"),
            },
        ),
        (
            Verdict(
                "queue_delay_grows",
                "mean decode queue delay grows from the lowest to the highest rate",
                lambda rows: rows[-1]["mean decode queue delay (s)"]
                > rows[0]["mean decode queue delay (s)"],
            ),
            Verdict(
                "swaps_grow",
                "swap events do not fall from the lowest to the highest rate",
                lambda rows: rows[-1]["swap events"] >= rows[0]["swap events"],
            ),
            Verdict(
                "swaps_at_top",
                "DistServe swaps at the highest rate",
                lambda rows: rows[-1]["swap events"] > 0,
            ),
        ),
    ),
    Claim(
        "fig01b_motivation",
        "Fig 1b - SLO attainment under load (OPT-13B)",
        lambda: sweep(
            grid(FIG01, FIG01_RATES, ("distserve", "vllm")),
            {**SLO, **secs("ttft_p50", "tpot_p99")},
        ),
        (
            Verdict(
                "distserve_degrades",
                "DistServe's SLO attainment falls from the lowest to the highest rate",
                lambda rows: (s := _fig01b_series("distserve")(rows))[-1] < s[0],
            ),
            Verdict(
                "vllm_degrades",
                "vLLM's SLO attainment falls from the lowest to the highest rate",
                lambda rows: (s := _fig01b_series("vllm")(rows))[-1] < s[0],
            ),
            Verdict(
                "distserve_no_better_than_vllm",
                "at the highest rate PD DistServe is no better than colocated vLLM "
                "(within 0.05; the paper's surprising observation)",
                lambda rows: _fig01b_series("distserve")(rows)[-1]
                <= _fig01b_series("vllm")(rows)[-1] + 0.05,
            ),
        ),
    ),
    Claim(
        "fig01_pressure",
        "Figs 1, 13 - decode memory pressure, [TP-2 | TP-1] @ 3.5 req/s/GPU",
        lambda: compare(PRESSURE, ("distserve", "windserve", "windserve-no-resche")),
        (
            Verdict(
                "distserve_swaps",
                "DistServe swaps KV under decode memory pressure",
                lambda rows: row(rows, system="distserve")["swap events"] > 0,
            ),
            Verdict(
                "distserve_queues",
                "DistServe's mean decode queue delay exceeds 50 ms",
                lambda rows: row(rows, system="distserve")["mean decode queue delay (s)"]
                > 0.05,
            ),
            Verdict(
                "windserve_fewer_swaps",
                "WindServe swaps less than DistServe",
                lambda rows: row(rows, system="windserve")["swap events"]
                < row(rows, system="distserve")["swap events"],
            ),
            Verdict(
                "windserve_less_queueing",
                "WindServe's mean decode queue delay is below DistServe's",
                lambda rows: row(rows, system="windserve")["mean decode queue delay (s)"]
                < row(rows, system="distserve")["mean decode queue delay (s)"],
            ),
            Verdict(
                "no_resche_hurts_tpot",
                "Fig 13: WindServe's TPOT P99 is below no-resche's",
                lambda rows: row(rows, system="windserve")["tpot_p99 (s)"]
                < row(rows, system="windserve-no-resche")["tpot_p99 (s)"],
            ),
        ),
        precision=4,
    ),
    Claim(
        "fig02_utilization",
        "Fig 2 - mean utilisation per instance (DistServe)",
        _fig02_rows,
        (
            Verdict(
                "decode_tensor_cores_idle",
                "the decode instance's tensor cores idle relative to the prefill instance's",
                lambda rows: all(r["Tensor Core(D)"] < r["Tensor Core(P)"] for r in rows),
            ),
            Verdict(
                "decode_bandwidth_bound",
                "the decode instance's binding resource is memory bandwidth, not compute",
                lambda rows: all(r["Mem BW(D)"] > r["Tensor Core(D)"] for r in rows),
            ),
        ),
    ),
    Claim(
        "fig03_queuing",
        f"Fig 3 - queuing delays, OPT-13B/ShareGPT @ {FIG03_RATE} req/s/GPU (DistServe)",
        lambda: sweep(
            (
                (
                    {"placement": label},
                    replace(
                        OPT13_CHAT,
                        system="distserve",
                        rate_per_gpu=FIG03_RATE,
                        num_requests=500,
                        seed=29,
                        prefill_parallel=prefill,
                        decode_parallel=decode,
                    ),
                )
                for label, prefill, decode in FIG03_CONFIGS
            ),
            {
                "mean prefill queuing (s)": _prefill_queuing,
                "mean decode queuing (s)": "mean_decode_queue_delay",
                "swap events": "swap_events",
            },
        ),
        (
            Verdict(
                "tp1_decode_dominates",
                "[TP-2 | TP-1]: decode queuing exceeds prefill queuing",
                lambda rows: rows[0]["mean decode queuing (s)"]
                > rows[0]["mean prefill queuing (s)"],
            ),
            Verdict(
                "tp2_prefill_dominates",
                "[TP-2 | TP-2]: prefill queuing exceeds decode queuing",
                lambda rows: rows[1]["mean prefill queuing (s)"]
                > rows[1]["mean decode queuing (s)"],
            ),
            Verdict(
                "prefill_queuing_flips",
                "prefill queuing is longer under [TP-2 | TP-2] than [TP-2 | TP-1]",
                lambda rows: rows[1]["mean prefill queuing (s)"]
                > rows[0]["mean prefill queuing (s)"],
            ),
            Verdict(
                "decode_queuing_flips",
                "decode queuing is longer under [TP-2 | TP-1] than [TP-2 | TP-2]",
                lambda rows: rows[0]["mean decode queuing (s)"]
                > rows[1]["mean decode queuing (s)"],
            ),
        ),
    ),
    Claim(
        "fig05_threshold",
        "Fig 5 - dispatch threshold sweep (WindServe)",
        lambda: sweep(
            (
                (
                    {"scenario": f"{model}/{dataset}", "thrd / TTFT-SLO": frac},
                    Cell(
                        system="windserve",
                        model=model,
                        dataset=dataset,
                        rate_per_gpu=rate,
                        num_requests=400,
                        seed=31,
                        ws_config=WindServeConfig(dispatch_threshold_frac=frac),
                    ),
                )
                for model, dataset, rate in FIG05_SCENARIOS
                for frac in FIG05_FRACTIONS
            ),
            {**SLO, **secs("ttft_p50", "tpot_p99"), **DISPATCHED},
        ),
        (
            Verdict(
                "low_threshold_dispatches_more",
                "in both scenarios thrd 0.1x dispatches at least as much as 3.0x",
                _fig05_holds(lambda f: f[0.1]["dispatched"] >= f[3.0]["dispatched"]),
            ),
            Verdict(
                "operating_point_beats_high",
                "in both scenarios the paper's operating point (0.9x) is no worse on "
                "SLO attainment than 3.0x (dispatch nearly disabled)",
                _fig05_holds(lambda f: f[0.9]["slo attainment"] >= f[3.0]["slo attainment"]),
            ),
            Verdict(
                "low_threshold_costs_tpot",
                "in both scenarios TPOT P99 at 0.1x is >= 0.9x that at 3.0x "
                "(more co-located prefills)",
                _fig05_holds(lambda f: f[0.1]["tpot_p99 (s)"] >= f[3.0]["tpot_p99 (s)"] * 0.9),
            ),
        ),
    ),
    Claim(
        "fig08_sbd_microbench",
        f"Fig 8 - single pass cost, {DECODE_BATCH} decodes (ctx {DECODE_CONTEXT}) "
        "+ prefill tokens: Regular vs SBD",
        _fig08_rows,
        (
            Verdict(
                "sbd_decode_near_isolated",
                "an SBD decode iteration costs <= 1.25x an isolated decode",
                lambda rows: all(
                    r["SBD decode iter (s)"] <= 1.25 * r["isolated decode (s)"] for r in rows
                ),
            ),
            Verdict(
                "regular_pass_pays_prefill",
                "from 512 prefill tokens, the regular fused pass costs > 2x an SBD decode",
                lambda rows: all(
                    r[REGULAR] > 2 * r["SBD decode iter (s)"]
                    for r in rows
                    if r["prefill tokens"] >= 512
                ),
            ),
            Verdict(
                "sbd_prefill_penalty_moderate",
                "an SBD prefill costs <= 2x an isolated prefill",
                lambda rows: all(
                    r["SBD prefill (s)"] <= 2.0 * r["isolated prefill (s)"] for r in rows
                ),
            ),
            Verdict(
                "regular_interference_grows",
                "OPT-13B's regular pass grows from the smallest to the largest prefill",
                lambda rows: (s := [r[REGULAR] for r in rows if r["model"] == "opt-13b"])[-1]
                > s[0],
            ),
        ),
        precision=4,
    ),
    _fig10_panel("fig10_opt13b", "10a/b-opt-13b", "opt-13b", "sharegpt",
                 ((2, 1), (2, 1)), [2.0, 3.0, 4.0, 5.0]),
    _fig10_panel("fig10_opt66b", "10a/b-opt-66b", "opt-66b", "sharegpt",
                 ((2, 2), (2, 2)), [0.3, 0.45, 0.6]),
    _fig10_panel("fig10_llama2_13b", "10c/d-llama2-13b", "llama2-13b", "longbench",
                 ((2, 1), (2, 1)), [0.5, 1.0, 1.5]),
    _fig10_panel("fig10_llama2_70b", "10c/d-llama2-70b", "llama2-70b", "longbench",
                 ((2, 2), (2, 2)), [0.1, 0.15, 0.2]),
    Claim(
        "fig10_moderate_load",
        "Fig 10 - vLLM vs DistServe, OPT-13B/ShareGPT @ 2.0 req/s/GPU",
        lambda: compare(replace(HEADLINE, rate_per_gpu=2.0), ("vllm", "distserve")),
        (
            Verdict(
                "vllm_tpot_worse",
                "colocation inflates vLLM's TPOT P90 above DistServe's before "
                "DistServe's queueing collapse",
                lambda rows: row(rows, system="vllm")["tpot_p90 (s)"]
                > row(rows, system="distserve")["tpot_p90 (s)"],
            ),
        ),
        precision=4,
    ),
    Claim(
        "fig10_longbench",
        "Fig 10c - LLaMA2-13B/LongBench @ 2.2 req/s/GPU",
        lambda: compare(
            replace(
                HEADLINE, model="llama2-13b", dataset="longbench", rate_per_gpu=2.2,
                num_requests=300,
            ),
            ("windserve", "distserve"),
        ),
        (
            Verdict(
                "ttft_p50_gain",
                "DistServe/WindServe TTFT median >= 1.3x on summarisation (paper: 1.65-2.1x)",
                lambda rows: ratio(rows, "ttft_p50 (s)", "distserve", "windserve") >= 1.3,
            ),
        ),
        precision=4,
    ),
    Claim(
        "fig10_gqa_kv",
        "Fig 10d - KV bytes per token, GQA LLaMA2-70B vs MHA LLaMA2-13B",
        lambda: [
            {"model": name, "kv bytes/token": get_model(name).kv_bytes_per_token}
            for name in ("llama2-70b", "llama2-13b")
        ],
        (
            Verdict(
                "gqa_shrinks_kv",
                "LLaMA2-70B's GQA KV per token is under half LLaMA2-13B's, so the "
                "async-transfer TPOT advantage narrows",
                lambda rows: row(rows, model="llama2-70b")["kv bytes/token"]
                < row(rows, model="llama2-13b")["kv bytes/token"] / 2,
            ),
        ),
    ),
    _fig11("fig11_sharegpt", "11a-sharegpt", "opt-13b", "sharegpt", [2.0, 3.5, 5.0]),
    _fig11("fig11_longbench", "11b-longbench", "llama2-13b", "longbench", [0.8, 1.4, 2.0]),
    Claim(
        "fig12_tp2_tp1",
        "Fig 12 (left) - [TP-2 | TP-1], decode-bound",
        _fig12_rows((1, 1), [2.5, 3.5]),
        (
            Verdict(
                "distserve_tpot_violated",
                "DistServe's TPOT attainment drops below 0.9 at the highest rate",
                lambda rows: top(rows, "distserve")["tpot attainment"] < 0.9,
            ),
            Verdict(
                "windserve_reschedules",
                "WindServe reschedules at the highest rate",
                lambda rows: top(rows, "windserve")["rescheduled"] > 0,
            ),
            Verdict(
                "tpot_attainment_wins", "WindServe wins TPOT attainment", _beats("tpot attainment")
            ),
            Verdict("slo_wins", "WindServe wins SLO attainment", _beats("slo attainment")),
        ),
    ),
    Claim(
        "fig12_tp2_tp2",
        "Fig 12 (right) - [TP-2 | TP-2], prefill-bound",
        _fig12_rows((2, 1), [3.5, 4.5]),
        (
            Verdict(
                "distserve_ttft_bound",
                "DistServe's TTFT attainment is below its TPOT attainment at the highest rate",
                lambda rows: top(rows, "distserve")["ttft attainment"]
                < top(rows, "distserve")["tpot attainment"],
            ),
            Verdict(
                "windserve_dispatches",
                "WindServe dispatches prefills at the highest rate",
                lambda rows: top(rows, "windserve")["dispatched"] > 0,
            ),
            Verdict(
                "ttft_attainment_wins", "WindServe wins TTFT attainment", _beats("ttft attainment")
            ),
            Verdict("slo_wins", "WindServe wins SLO attainment", _beats("slo attainment")),
        ),
    ),
    Claim(
        "fig12_decode_bound",
        "Fig 12 - [TP-2 | TP-1] @ 3.0 req/s/GPU",
        lambda: compare(
            replace(HEADLINE, decode_parallel=(1, 1), rate_per_gpu=3.0),
            ("windserve", "distserve"),
        ),
        (
            Verdict(
                "tpot_p99_wins",
                "rescheduling keeps WindServe's TPOT P99 below DistServe's",
                lambda rows: row(rows, system="windserve")["tpot_p99 (s)"]
                < row(rows, system="distserve")["tpot_p99 (s)"],
            ),
        ),
        precision=4,
    ),
    Claim(
        "fig12_prefill_bound",
        "Fig 12 - [TP-2 | TP-2] @ 4.0 req/s/GPU",
        lambda: compare(replace(HEADLINE, rate_per_gpu=4.0), ("windserve", "distserve")),
        (
            Verdict(
                "ttft_p50_wins",
                "dispatch keeps WindServe's TTFT median below DistServe's",
                lambda rows: row(rows, system="windserve")["ttft_p50 (s)"]
                < row(rows, system="distserve")["ttft_p50 (s)"],
            ),
        ),
        precision=4,
    ),
    Claim(
        "fig13a_no_split",
        "Fig 13a - WindServe-no-split, OPT-13B/LongBench P99 latencies",
        _fig13_rows(
            replace(FIG13, dataset="longbench"),
            "windserve-no-split",
            (1.2, 1.8),
            {**secs("ttft_p99", "tpot_p99"), **SLO},
        ),
        (
            Verdict(
                "sbd_protects_tpot",
                "WindServe's TPOT P99 is below no-split's at the highest rate",
                lambda rows: top(rows, "windserve")["tpot_p99 (s)"]
                < top(rows, "windserve-no-split")["tpot_p99 (s)"],
            ),
            Verdict(
                "minimal_ttft_impact",
                "no-split's TTFT P99 is <= 3x WindServe's + 0.5 s at the highest rate",
                lambda rows: top(rows, "windserve-no-split")["ttft_p99 (s)"]
                <= 3 * top(rows, "windserve")["ttft_p99 (s)"] + 0.5,
            ),
        ),
    ),
    Claim(
        "fig13b_no_resche",
        "Fig 13b - WindServe-no-resche, OPT-13B/ShareGPT [TP-2|TP-1] P99s",
        _fig13_rows(
            replace(FIG13, decode_parallel=(1, 1)),
            "windserve-no-resche",
            (2.5, 3.5),
            {**secs("ttft_p99", "tpot_p99"), "swap events": "swap_events", **SLO},
        ),
        (
            Verdict(
                "rescheduling_cuts_tpot",
                "WindServe's TPOT P99 is below no-resche's at the highest rate",
                lambda rows: top(rows, "windserve")["tpot_p99 (s)"]
                < top(rows, "windserve-no-resche")["tpot_p99 (s)"],
            ),
            Verdict(
                "rescheduling_cuts_swaps",
                "WindServe swaps no more than no-resche at the highest rate",
                lambda rows: top(rows, "windserve")["swap events"]
                <= top(rows, "windserve-no-resche")["swap events"],
            ),
        ),
    ),
)


# -- design-choice ablations -----------------------------------------------------

ASYNC_SCENARIOS = [
    ("llama2-13b", "longbench", 0.8, (2, 1)),  # MHA: 800 KiB KV per token
    ("llama2-70b", "longbench", 0.12, (2, 2)),  # GQA: 320 KiB KV per token
]
ASYNC_MODES = (("async", WindServeConfig()), ("blocking", WindServeConfig(async_transfer=False)))


def _async_pair(rows: Rows, model: str) -> tuple[dict, dict]:
    return row(rows, model=model, transfer="async"), row(rows, model=model, transfer="blocking")


def _async_gain(rows: Rows, model: str) -> float:
    a, b = _async_pair(rows, model)
    return (b["tpot_p50 (s)"] - a["tpot_p50 (s)"]) / b["tpot_p50 (s)"]


def _migration_bytes(run: CellRun, kind: Callable[[str], bool]) -> int:
    return sum(n for k, n in run.target.transfers.bytes_by_kind.items() if kind(k))


def _abl_backup_rows() -> Rows:
    rows = []
    for label, enabled in (("backups-on", True), ("backups-off", False)):
        cell = Cell(
            system="windserve",
            model="opt-13b",
            dataset="sharegpt",
            rate_per_gpu=3.2,
            num_requests=400,
            seed=67,
            decode_parallel=(1, 1),
            decode_instance_config=InstanceConfig(kv_capacity_override_tokens=16384),
            ws_config=WindServeConfig(backup_enabled=enabled, backup_min_prompt_tokens=512),
        )
        run = clean_run(cell)
        metrics = run.metrics
        bulk_bytes = _migration_bytes(run, lambda kind: kind == "migration-bulk")
        completed_migrations = metrics.counters.get("reschedule_completed", 0)
        rows.append(
            {
                "config": label,
                "migrations": completed_migrations,
                "bulk GB moved": bulk_bytes / 1024**3,
                "bulk GB per migration": (
                    bulk_bytes / 1024**3 / completed_migrations if completed_migrations else 0.0
                ),
                "backups kept": metrics.counters.get("backup_kept", 0),
                "tpot_p99 (s)": metrics.tpot_stats().p99,
                "slo attainment": metrics.slo_attainment(cell.slo()),
            }
        )
    return rows


CHUNKS = [128, 256, 512, 1024, 2048]


def _chunk_analytic_rows() -> Rows:
    model = LatencyModel(get_model("llama2-70b"), A800_80GB, ParallelConfig(tp=2, pp=2))
    scm = StreamContentionModel()
    rows = []
    for chunk in CHUNKS:
        total, step, n = scm.chunked_prefill(model, 2048, chunk, 16, 16 * 2048)
        rows.append({"chunk": chunk, "chunks": n, "prefill total (s)": total, "fused step (s)": step})
    return rows


COLOCATION_MODES = {
    "sbd": WindServeConfig(colocation_mode="sbd"),
    "hybrid": WindServeConfig(colocation_mode="hybrid"),
    "static-partition-30%": WindServeConfig(
        colocation_mode="static-partition", static_partition_fraction=0.3
    ),
}


def _abl_reschedule_rows() -> Rows:
    rows = []
    for policy in ("longest-context", "shortest-context"):
        cell = Cell(
            system="windserve",
            model="opt-13b",
            dataset="sharegpt",
            rate_per_gpu=3.5,
            num_requests=400,
            seed=59,
            decode_parallel=(1, 1),
            ws_config=WindServeConfig(reschedule_policy=policy),
        )
        run = clean_run(cell)
        metrics = run.metrics
        migration_bytes = _migration_bytes(run, lambda kind: kind.startswith("migration"))
        migrations = metrics.counters.get("reschedule_completed", 0)
        rows.append(
            {
                "policy": policy,
                "migrations": migrations,
                "migration GB": migration_bytes / 1024**3,
                "GB per migration": (migration_bytes / 1024**3 / migrations if migrations else 0.0),
                "swap events": metrics.counters.get("swap_out", 0),
                "tpot_p99 (s)": metrics.tpot_stats().p99,
                "slo attainment": metrics.slo_attainment(cell.slo()),
            }
        )
    return rows


ABLATIONS = (
    Claim(
        "abl_async_transfer",
        "Ablation - async (layer-overlapped) KV hand-off",
        lambda: sweep(
            (
                (
                    {"model": model, "transfer": mode},
                    Cell(
                        system="windserve",
                        model=model,
                        dataset=dataset,
                        rate_per_gpu=rate,
                        num_requests=300,
                        seed=61,
                        prefill_parallel=parallel,
                        decode_parallel=parallel,
                        ws_config=ws,
                    ),
                )
                for model, dataset, rate, parallel in ASYNC_SCENARIOS
                for mode, ws in ASYNC_MODES
            ),
            {**secs("ttft_p50", "tpot_p50", "tpot_p99"), **SLO},
        ),
        (
            Verdict(
                "mha_tpot_gain",
                "on MHA LLaMA2-13B the async hand-off cuts TPOT P50",
                lambda rows: (p := _async_pair(rows, "llama2-13b"))[0]["tpot_p50 (s)"]
                < p[1]["tpot_p50 (s)"],
            ),
            Verdict(
                "mha_slight_ttft_cost",
                "on MHA LLaMA2-13B async TTFT P50 is >= 0.95x blocking's "
                "(the paper's LongBench observation)",
                lambda rows: (p := _async_pair(rows, "llama2-13b"))[0]["ttft_p50 (s)"]
                >= 0.95 * p[1]["ttft_p50 (s)"],
            ),
            Verdict(
                "gqa_gain_smaller",
                "the relative TPOT P50 gain is smaller on GQA LLaMA2-70B",
                lambda rows: _async_gain(rows, "llama2-13b") > _async_gain(rows, "llama2-70b"),
            ),
        ),
        precision=4,
    ),
    Claim(
        "abl_backup",
        "Ablation - KV backups reduce migration volume (§3.3)",
        _abl_backup_rows,
        (
            Verdict(
                "backups_kept",
                "with backups on, the prefill instance keeps backups",
                lambda rows: row(rows, config="backups-on")["backups kept"] > 0,
            ),
            Verdict(
                "no_backups_when_off",
                "with backups off, none are kept",
                lambda rows: row(rows, config="backups-off")["backups kept"] == 0,
            ),
            Verdict(
                "backups_shrink_migrations",
                "backups shrink the bulk leg per migration by the prompt's KV",
                lambda rows: row(rows, config="backups-on")["bulk GB per migration"]
                < row(rows, config="backups-off")["bulk GB per migration"],
            ),
        ),
    ),
    Claim(
        "abl_chunk_size_analytic",
        "Chunk-size trade-off, LLaMA2-70B (paper's Fig 8 example)",
        _chunk_analytic_rows,
        (
            Verdict(
                "small_chunks_longer_prefill",
                "smaller chunks make the total prefill longer",
                lambda rows: (t := [r["prefill total (s)"] for r in rows]) == sorted(t, reverse=True),
            ),
            Verdict(
                "small_chunks_shorter_steps",
                "smaller chunks make the fused step shorter",
                lambda rows: (s := [r["fused step (s)"] for r in rows]) == sorted(s),
            ),
        ),
        precision=4,
    ),
    Claim(
        "abl_chunk_size_e2e",
        "Chunk-size trade-off, vLLM end-to-end",
        lambda: sweep(
            (
                (
                    {"chunk": chunk},
                    replace(
                        OPT13_CHAT,
                        system="vllm",
                        rate_per_gpu=2.5,
                        num_requests=300,
                        seed=73,
                        instance_config=InstanceConfig(max_batched_tokens=chunk),
                    ),
                )
                for chunk in (128, 512, 2048)
            ),
            {**secs("ttft_p50", "tpot_p90"), **SLO},
        ),
        (
            Verdict(
                "large_chunks_favour_ttft",
                "chunk 2048's TTFT P50 is no worse than chunk 128's",
                lambda rows: row(rows, chunk=2048)["ttft_p50 (s)"]
                <= row(rows, chunk=128)["ttft_p50 (s)"],
            ),
            Verdict(
                "small_chunks_protect_tpot",
                "chunk 128's TPOT P90 is no worse than chunk 2048's",
                lambda rows: row(rows, chunk=128)["tpot_p90 (s)"]
                <= row(rows, chunk=2048)["tpot_p90 (s)"],
            ),
        ),
    ),
    Claim(
        "abl_colocation",
        "Ablation - co-location modes for dispatched prefills (§3.4)",
        lambda: sweep(
            (
                (
                    {"colocation": label},
                    replace(
                        OPT13_CHAT, rate_per_gpu=4.0, num_requests=400, seed=53, ws_config=ws
                    ),
                )
                for label, ws in COLOCATION_MODES.items()
            ),
            {**secs("ttft_p50", "tpot_p90", "tpot_p99"), **SLO, **DISPATCHED},
        ),
        (
            Verdict(
                "sbd_beats_hybrid_tpot",
                "SBD beats regular hybrid batching on TPOT P90",
                lambda rows: row(rows, colocation="sbd")["tpot_p90 (s)"]
                < row(rows, colocation="hybrid")["tpot_p90 (s)"],
            ),
            Verdict(
                "sbd_beats_static_tpot",
                "static partitioning taxes decode permanently: SBD beats it on TPOT P90",
                lambda rows: row(rows, colocation="sbd")["tpot_p90 (s)"]
                < row(rows, colocation="static-partition-30%")["tpot_p90 (s)"],
            ),
            Verdict(
                "sbd_wins_slo",
                "SBD's SLO attainment is no worse than either alternative's",
                lambda rows: row(rows, colocation="sbd")["slo attainment"]
                >= max(
                    row(rows, colocation="hybrid")["slo attainment"],
                    row(rows, colocation="static-partition-30%")["slo attainment"],
                ),
            ),
        ),
    ),
    Claim(
        "abl_preemption",
        "Ablation - vLLM preemption under KV pressure: swap vs recompute",
        lambda: sweep(
            (
                (
                    {"preemption": mode},
                    replace(
                        OPT13_CHAT,
                        system="vllm",
                        rate_per_gpu=3.0,
                        num_requests=400,
                        seed=71,
                        instance_config=InstanceConfig(
                            preemption_mode=mode, kv_capacity_override_tokens=24576
                        ),
                    ),
                )
                for mode in ("swap", "recompute")
            ),
            {
                "swap events": counter("swap_out"),
                "recompute events": counter("recompute_preempt"),
                **secs("ttft_p99", "tpot_p99"),
                **SLO,
            },
        ),
        (
            Verdict(
                "swap_mode_only_swaps",
                "swap mode swaps and never recomputes",
                lambda rows: (r := row(rows, preemption="swap"))["swap events"] > 0
                and r["recompute events"] == 0,
            ),
            Verdict(
                "recompute_mode_only_recomputes",
                "recompute mode recomputes and never swaps",
                lambda rows: (r := row(rows, preemption="recompute"))["recompute events"] > 0
                and r["swap events"] == 0,
            ),
        ),
    ),
    Claim(
        "abl_reschedule_policy",
        "Ablation - rescheduling victim policy (WindServe vs Llumnix-style)",
        _abl_reschedule_rows,
        (
            Verdict(
                "both_migrate",
                "both policies complete migrations",
                lambda rows: row(rows, policy="longest-context")["migrations"] > 0
                and row(rows, policy="shortest-context")["migrations"] > 0,
            ),
            Verdict(
                "longest_moves_more_per_migration",
                "longest-first moves more KV per migration",
                lambda rows: row(rows, policy="longest-context")["GB per migration"]
                > row(rows, policy="shortest-context")["GB per migration"],
            ),
            Verdict(
                "longest_tpot_bounded",
                "longest-first's TPOT P99 is <= 1.2x shortest-first's",
                lambda rows: row(rows, policy="longest-context")["tpot_p99 (s)"]
                <= 1.2 * row(rows, policy="shortest-context")["tpot_p99 (s)"],
            ),
            Verdict(
                "longest_slo_bounded",
                "longest-first's SLO attainment is >= 0.9x shortest-first's",
                lambda rows: row(rows, policy="longest-context")["slo attainment"]
                >= 0.9 * row(rows, policy="shortest-context")["slo attainment"],
            ),
        ),
    ),
)


# -- extensions ------------------------------------------------------------------


def _opt13b_chat_config() -> tuple[SystemConfig, Any]:
    model = get_model("opt-13b")
    slo = derive_slo(model, get_dataset("sharegpt"), ParallelConfig(tp=2))
    return SystemConfig(model=model, slo=slo), slo


def _ext_autoscaling_rows() -> Rows:
    config, slo = _opt13b_chat_config()
    model = config.model
    rows = []
    for label, active in (("fixed-small", 1), ("fixed-large", 4), ("autoscaled", None)):
        cluster = ClusterTopology(num_nodes=2, gpus_per_node=8)
        base = build_windserve_fleet(config, cluster)
        fleet = AutoscalingFleet(
            base.members,
            autoscaler=AutoscalerConfig(
                startup_delay=30.0, scale_out_load=16.0, scale_in_load=2.0
            ),
            initially_active=active if active is not None else 1,
        )
        if active is not None:
            # Pin the fleet size: watermark thresholds that never trigger.
            fleet.autoscaler = AutoscalerConfig(
                min_active=active,
                scale_out_load=float("inf"),
                scale_in_load=-1.0,
                startup_delay=30.0,
            )
        # Quiet -> rush -> quiet.
        trace = generate_shifting_trace(
            [
                WorkloadPhase(SHAREGPT, rate=5.0, num_requests=150),
                WorkloadPhase(SHAREGPT, rate=40.0, num_requests=2400),
                WorkloadPhase(SHAREGPT, rate=4.0, num_requests=240),
            ],
            seed=113,
            model=model,
        )
        metrics = checked_run(fleet, trace)
        rows.append(
            {
                "fleet": label,
                "ttft_p50 (s)": metrics.ttft_stats().p50,
                "ttft_p99 (s)": metrics.ttft_stats().p99,
                "slo attainment": metrics.slo_attainment(slo),
                "gpu-seconds": fleet.gpu_hours_used(),
                "scale events": len(fleet.events),
            }
        )
    return rows


CAPACITY_SCENARIOS = {
    "opt-13b/sharegpt": dict(model="opt-13b", dataset="sharegpt", high=8.0),
    "llama2-13b/longbench": dict(model="llama2-13b", dataset="longbench", high=3.0),
}
CAPACITY = "capacity (req/s/GPU @ 70% SLO)"


def _ext_capacity_rows() -> Rows:
    rows = []
    for label, cfg in CAPACITY_SCENARIOS.items():
        for system in SYSTEMS:
            cell = Cell(
                system=system,
                model=cfg["model"],
                dataset=cfg["dataset"],
                rate_per_gpu=1.0,
                num_requests=250,
                seed=107,
            )
            result = find_capacity(
                cell, target_attainment=0.7, low=0.2, high=cfg["high"], iterations=6
            )
            rows.append(
                {
                    "scenario": label,
                    "system": system,
                    CAPACITY: result.capacity_per_gpu,
                    "attainment there": result.attainment_at_capacity,
                }
            )
    return rows


def _capacity_holds(holds: Callable[[dict], bool]) -> Callable[[Rows], bool]:
    """``holds`` over each scenario's system -> capacity map."""
    return lambda rows: all(
        holds({r["system"]: r[CAPACITY] for r in rows if r["scenario"] == label})
        for label in CAPACITY_SCENARIOS
    )


FLEET_RATE_PER_GPU = 3.0


def _ext_fleet_scaleout_rows() -> Rows:
    config, slo = _opt13b_chat_config()
    rows = []
    for nodes in (1, 2):
        fleet = build_windserve_fleet(config, ClusterTopology(num_nodes=nodes, gpus_per_node=8))
        gpus = fleet.num_gpus
        trace = generate_trace(
            get_dataset("sharegpt"),
            rate=FLEET_RATE_PER_GPU * gpus,
            num_requests=150 * gpus // 4,
            seed=101,
            model=config.model,
        )
        metrics = checked_run(fleet, trace)
        rows.append(
            {
                "nodes": nodes,
                "gpus": gpus,
                "members": len(fleet.members),
                "ttft_p50 (s)": metrics.ttft_stats().p50,
                "tpot_p99 (s)": metrics.tpot_stats().p99,
                "slo attainment": metrics.slo_attainment(slo),
            }
        )
    return rows


def _ext_fleet_router_rows() -> Rows:
    config, slo = _opt13b_chat_config()
    rows = []
    for policy in ("round-robin", "least-loaded", "predicted-ttft"):
        fleet = build_windserve_fleet(
            config, ClusterTopology(num_nodes=1, gpus_per_node=8), policy=policy
        )
        trace = generate_trace(
            get_dataset("sharegpt"),
            rate=FLEET_RATE_PER_GPU * 8,
            num_requests=400,
            seed=103,
            model=config.model,
            arrival_process="bursty",
            burstiness_cv=3.0,
        )
        metrics = checked_run(fleet, trace)
        rows.append(
            {
                "router": policy,
                "ttft_p50 (s)": metrics.ttft_stats().p50,
                "ttft_p99 (s)": metrics.ttft_stats().p99,
                "slo attainment": metrics.slo_attainment(slo),
                "routing split": "/".join(str(c) for c in fleet.routed),
            }
        )
    return rows


#: Relative hourly cost units (cloud list prices, roughly).
GPU_COST = {A800_80GB.name: 6.0, RTX_4090.name: 1.0}
HETERO_RATE_PER_GPU = 2.0


def _ext_heterogeneous_rows() -> Rows:
    model = get_model("llama2-7b")
    dataset = get_dataset("sharegpt")
    # Score both deployments against the SLO of the A800 decode instance.
    slo = derive_slo(model, dataset, ParallelConfig(tp=2))
    rows = []
    for label, prefill_gpu in (("A800-prefill", A800_80GB), ("4090-prefill", RTX_4090)):
        cluster = ClusterTopology(
            num_nodes=2,
            gpus_per_node=2,
            numa_nodes_per_node=1,
            node_gpus=[prefill_gpu, A800_80GB],
        )
        tp_link = 23.0 if prefill_gpu.nvlink_gbps == 0 else prefill_gpu.nvlink_gbps
        placement = Placement(
            prefill_gpus=(0, 1),
            decode_gpus=(2, 3),
            prefill_parallel=ParallelConfig(tp=2, tp_link_gbps=tp_link),
            decode_parallel=ParallelConfig(tp=2),
        )
        system = WindServeSystem(
            SystemConfig(model=model, slo=slo),
            placement=placement,
            topology=cluster,
            prefill_gpu=prefill_gpu,
            decode_gpu=A800_80GB,
        )
        trace = generate_trace(
            dataset, rate=HETERO_RATE_PER_GPU * 4, num_requests=300, seed=89, model=model
        )
        metrics = checked_run(system, trace)
        cost = 2 * GPU_COST[prefill_gpu.name] + 2 * GPU_COST[A800_80GB.name]
        attainment = metrics.slo_attainment(slo)
        goodput = attainment * HETERO_RATE_PER_GPU * 4
        rows.append(
            {
                "deployment": label,
                "ttft_p50 (s)": metrics.ttft_stats().p50,
                "tpot_p99 (s)": metrics.tpot_stats().p99,
                "slo attainment": attainment,
                "cost units": cost,
                "goodput/cost": goodput / cost,
            }
        )
    return rows


def _ext_multinode_rows() -> Rows:
    model = get_model("opt-13b")
    dataset = get_dataset("sharegpt")
    slo = derive_slo(model, dataset, ParallelConfig(tp=2))
    rows = []
    for deployment in ("intra-node", "cross-node"):
        if deployment == "intra-node":
            topology = NodeTopology(num_gpus=4)
        else:
            topology = ClusterTopology(num_nodes=2, gpus_per_node=2, numa_nodes_per_node=1)
        placement = Placement(
            prefill_gpus=(0, 1),
            decode_gpus=(2, 3),
            prefill_parallel=ParallelConfig(tp=2),
            decode_parallel=ParallelConfig(tp=2),
        )
        for name, cls in (("windserve", WindServeSystem), ("distserve", DistServeSystem)):
            system = cls(SystemConfig(model=model, slo=slo), placement=placement, topology=topology)
            trace = generate_trace(dataset, rate=3.0 * 4, num_requests=400, seed=79, model=model)
            metrics = checked_run(system, trace)
            rows.append(
                {
                    "deployment": deployment,
                    "system": name,
                    "ttft_p50 (s)": metrics.ttft_stats().p50,
                    "tpot_p50 (s)": metrics.tpot_stats().p50,
                    "tpot_p99 (s)": metrics.tpot_stats().p99,
                    "slo attainment": metrics.slo_attainment(slo),
                }
            )
    return rows


def _tpot_p50(rows: Rows, deployment: str, system: str) -> float:
    return row(rows, deployment=deployment, system=system)["tpot_p50 (s)"]


def _tpot_penalty(rows: Rows, system: str) -> float:
    return _tpot_p50(rows, "cross-node", system) / _tpot_p50(rows, "intra-node", system)


def _ext_replanning_rows() -> Rows:
    model = get_model("opt-13b")
    slo = derive_slo(model, get_dataset("sharegpt"), ParallelConfig(tp=2))
    node = NodeTopology(num_gpus=8)
    chat_plan = plan_pd_placement(node, ParallelConfig(tp=2, pp=1), ParallelConfig(tp=2, pp=3))
    summarise_plan = plan_pd_placement(node, ParallelConfig(tp=2, pp=3), ParallelConfig(tp=2, pp=1))
    balanced_plan = plan_pd_placement(node, ParallelConfig(tp=2, pp=2), ParallelConfig(tp=2, pp=2))
    config = SystemConfig(model=model, slo=slo)
    rows = []

    def record(name, system, replans=lambda: 0):
        # A chatbot phase, then a summarisation phase.
        trace = generate_shifting_trace(
            [
                WorkloadPhase(SHAREGPT, rate=12.0, num_requests=300),
                WorkloadPhase(LONGBENCH, rate=6.0, num_requests=300),
            ],
            seed=97,
            model=model,
        )
        metrics = checked_run(system, trace)
        rows.append(
            {
                "system": name,
                "ttft_p50 (s)": metrics.ttft_stats().p50,
                "ttft_p99 (s)": metrics.ttft_stats().p99,
                "tpot_p99 (s)": metrics.tpot_stats().p99,
                "slo attainment": metrics.slo_attainment(slo),
                "replans": replans(),
            }
        )

    record(
        "distserve-static",
        DistServeSystem(config, placement=chat_plan, topology=NodeTopology(num_gpus=8)),
    )
    replanner = ReplanningDistServeSystem(
        config, alternatives=[chat_plan, summarise_plan], topology=NodeTopology(num_gpus=8)
    )
    record("distserve-replan", replanner, lambda: replanner.replan_count)
    record(
        "windserve",
        WindServeSystem(config, placement=balanced_plan, topology=NodeTopology(num_gpus=8)),
    )
    return rows


def _digests_by_seed(rows: Rows) -> dict[str, set]:
    """Seed label (``s0`` of ``s0:windserve``) -> its rows' workload digests."""
    seeds: dict[str, set] = {}
    for r in rows:
        seeds.setdefault(r["run"].split(":")[0], set()).add(r["workload"])
    return seeds


def _healthy(rows: Rows, faulted: dict) -> dict:
    """The fault-free twin of a faulted chaos row."""
    return row(rows, run=faulted["run"].rsplit("/", 1)[0] + "/none")


def _every_faulted(holds: Callable[[Rows, dict], bool]) -> Callable[[Rows], bool]:
    """``holds(rows, r)`` for every faulted row, and there is one."""

    def every(rows: Rows) -> bool:
        faulted = [r for r in rows if r["plan"] != "none"]
        return bool(faulted) and all(holds(rows, r) for r in faulted)

    return every


#: Light tenants' P99 TTFT under the burst may reach this multiple of the
#: no-burst baseline's.
ISOLATION_BOUND = 1.5


def _ext_tenants_rows() -> Rows:
    cells = experiments.tenant_cells(experiments.TENANT_BASE)
    bursts = {
        label: experiments.burst_workload(cells[label])
        for label in (experiments.FAIRSHARE_RUN, experiments.FIFO_RUN)
    }
    return compare_runs(cells, experiments.tenant_fields, bursts)


def _light_p99(rows: Rows, label: str) -> float:
    return row(rows, run=label)["light_p99_ttft"]


def _isolated(rows: Rows, label: str) -> bool:
    """``label``'s light P99 TTFT is within the bound of the baseline's."""
    base = _light_p99(rows, experiments.BASELINE_RUN)
    if not base > 0:
        raise KeyError(experiments.BASELINE_RUN)  # no baseline to bound against
    return _light_p99(rows, label) <= ISOLATION_BOUND * base


EXTENSIONS = (
    Claim(
        "ext_autoscaling",
        "Extension - reactive autoscaling on a diurnal pattern (§7)",
        _ext_autoscaling_rows,
        (
            Verdict(
                "autoscaler_saves_gpu_seconds",
                "the autoscaled fleet spends < 0.8x the fixed-large fleet's GPU-seconds",
                lambda rows: row(rows, fleet="autoscaled")["gpu-seconds"]
                < 0.8 * row(rows, fleet="fixed-large")["gpu-seconds"],
            ),
            Verdict(
                "autoscaler_beats_small",
                "the autoscaled fleet beats fixed-small on SLO attainment",
                lambda rows: row(rows, fleet="autoscaled")["slo attainment"]
                > row(rows, fleet="fixed-small")["slo attainment"],
            ),
            Verdict(
                "scales_both_ways",
                "the autoscaler scales at least twice (out and back in)",
                lambda rows: row(rows, fleet="autoscaled")["scale events"] >= 2,
            ),
        ),
    ),
    Claim(
        "ext_burstiness",
        "Extension - Poisson vs bursty arrivals (CV=3)",
        lambda: sweep(
            (
                (
                    {"arrivals": f"{process} (cv={cv:g})", "system": system},
                    replace(
                        OPT13_CHAT,
                        system=system,
                        num_requests=400,
                        seed=83,
                        arrival_process=process,
                        burstiness_cv=cv,
                    ),
                )
                for process, cv in (("poisson", 1.0), ("bursty", 3.0))
                for system in SYSTEMS
            ),
            {**secs("ttft_p50", "ttft_p99", "tpot_p99"), **SLO},
        ),
        (
            Verdict(
                "bursts_hurt_everyone",
                "every system's bursty SLO attainment is <= its Poisson one + 0.05",
                lambda rows: all(
                    row(rows, arrivals="bursty (cv=3)", system=s)["slo attainment"]
                    <= row(rows, arrivals="poisson (cv=1)", system=s)["slo attainment"] + 0.05
                    for s in SYSTEMS
                ),
            ),
            Verdict(
                "windserve_beats_distserve_bursty",
                "under bursty load WindServe's SLO attainment is >= DistServe's",
                lambda rows: row(rows, arrivals="bursty (cv=3)", system="windserve")[
                    "slo attainment"
                ]
                >= row(rows, arrivals="bursty (cv=3)", system="distserve")["slo attainment"],
            ),
            Verdict(
                "windserve_beats_vllm_bursty",
                "under bursty load WindServe's SLO attainment is >= vLLM's",
                lambda rows: row(rows, arrivals="bursty (cv=3)", system="windserve")[
                    "slo attainment"
                ]
                >= row(rows, arrivals="bursty (cv=3)", system="vllm")["slo attainment"],
            ),
        ),
    ),
    Claim(
        "ext_capacity",
        "Extension - goodput capacity at 70% SLO attainment",
        _ext_capacity_rows,
        (
            Verdict(
                "windserve_beats_distserve",
                "in both scenarios WindServe's capacity exceeds DistServe's",
                _capacity_holds(lambda c: c["windserve"] > c["distserve"]),
            ),
            Verdict(
                "windserve_matches_vllm",
                "in both scenarios WindServe's capacity is >= vLLM's",
                _capacity_holds(lambda c: c["windserve"] >= c["vllm"]),
            ),
        ),
    ),
    Claim(
        "ext_fleet_scaleout",
        "Extension - fleet scale-out at fixed per-GPU rate",
        _ext_fleet_scaleout_rows,
        (
            Verdict(
                "scale_out_keeps_slo",
                "two nodes keep >= 0.7x one node's SLO attainment",
                lambda rows: row(rows, nodes=2)["slo attainment"]
                >= 0.7 * row(rows, nodes=1)["slo attainment"],
            ),
        ),
    ),
    Claim(
        "ext_fleet_router",
        "Extension - fleet router policies under bursty load",
        _ext_fleet_router_rows,
        (
            Verdict(
                "predicted_vs_round_robin",
                "predicted-TTFT routing's TTFT P99 is <= 1.1x round-robin's",
                lambda rows: row(rows, router="predicted-ttft")["ttft_p99 (s)"]
                <= 1.1 * row(rows, router="round-robin")["ttft_p99 (s)"],
            ),
            Verdict(
                "predicted_vs_least_loaded",
                "predicted-TTFT routing's TTFT P99 is <= 1.05x request-count balancing's "
                "(tokens, not counts)",
                lambda rows: row(rows, router="predicted-ttft")["ttft_p99 (s)"]
                <= 1.05 * row(rows, router="least-loaded")["ttft_p99 (s)"],
            ),
        ),
    ),
    Claim(
        "ext_heterogeneous",
        "Extension - heterogeneous prefill hardware (§7 future work)",
        _ext_heterogeneous_rows,
        (
            Verdict(
                "consumer_prefill_slower",
                "4090 prefill's TTFT P50 is no better than A800's",
                lambda rows: row(rows, deployment="4090-prefill")["ttft_p50 (s)"]
                >= row(rows, deployment="A800-prefill")["ttft_p50 (s)"],
            ),
            Verdict(
                "decode_untouched",
                "4090 prefill's TPOT P99 is <= 1.25x A800's (decode stays on A800s)",
                lambda rows: row(rows, deployment="4090-prefill")["tpot_p99 (s)"]
                <= 1.25 * row(rows, deployment="A800-prefill")["tpot_p99 (s)"],
            ),
            Verdict(
                "goodput_per_cost_wins",
                "4090 prefill wins goodput per cost unit",
                lambda rows: row(rows, deployment="4090-prefill")["goodput/cost"]
                > row(rows, deployment="A800-prefill")["goodput/cost"],
            ),
        ),
    ),
    Claim(
        "ext_multinode",
        "Extension - intra-node vs cross-node PD (§7)",
        _ext_multinode_rows,
        (
            Verdict(
                "cross_node_hurts_distserve",
                "cross-node hand-offs raise DistServe's TPOT P50",
                lambda rows: _tpot_p50(rows, "cross-node", "distserve")
                > _tpot_p50(rows, "intra-node", "distserve"),
            ),
            Verdict(
                "windserve_hides_transfer",
                "WindServe's cross-node TPOT P50 penalty is below DistServe's",
                lambda rows: _tpot_penalty(rows, "windserve") < _tpot_penalty(rows, "distserve"),
            ),
            Verdict(
                "windserve_wins_cross_node",
                "cross-node WindServe's SLO attainment is >= DistServe's",
                lambda rows: row(rows, deployment="cross-node", system="windserve")[
                    "slo attainment"
                ]
                >= row(rows, deployment="cross-node", system="distserve")["slo attainment"],
            ),
        ),
    ),
    Claim(
        "ext_replanning",
        "Extension - workload shift: static vs replanning vs WindServe (§2.2)",
        _ext_replanning_rows,
        (
            Verdict(
                "replanner_replans",
                "the replanning DistServe replans at least once",
                lambda rows: row(rows, system="distserve-replan")["replans"] >= 1,
            ),
            Verdict(
                "windserve_beats_replan_slo",
                "WindServe's SLO attainment beats replanned DistServe's",
                lambda rows: row(rows, system="windserve")["slo attainment"]
                > row(rows, system="distserve-replan")["slo attainment"],
            ),
            Verdict(
                "windserve_beats_static_slo",
                "WindServe's SLO attainment beats static DistServe's",
                lambda rows: row(rows, system="windserve")["slo attainment"]
                > row(rows, system="distserve-static")["slo attainment"],
            ),
            Verdict(
                "windserve_beats_replan_ttft",
                "WindServe's TTFT median is below replanned DistServe's",
                lambda rows: row(rows, system="windserve")["ttft_p50 (s)"]
                < row(rows, system="distserve-replan")["ttft_p50 (s)"],
            ),
        ),
    ),
    Claim(
        "ext_differential",
        "Extension - every system on one workload per seed (40 requests, seeds 0-2)",
        lambda: compare_runs(experiments.DIFFERENTIAL_CELLS),
        (
            Verdict(
                "one_workload_per_seed",
                "each seed's three systems consume one workload (one digest)",
                lambda rows: bool(rows)
                and all(len(d) == 1 for d in _digests_by_seed(rows).values()),
            ),
            Verdict(
                "seeds_differ",
                "the seeds' workloads differ (one digest per seed)",
                lambda rows: len({r["workload"] for r in rows}) == len(_digests_by_seed(rows)) > 1,
            ),
            Verdict(
                "requests_conserved",
                "every run completes or sheds each submitted request",
                lambda rows: bool(rows)
                and all(r["completed"] + r["shed"] == r["submitted"] for r in rows),
            ),
        ),
    ),
    Claim(
        "ext_chaos",
        "Extension - single systems under fault plans, each with its fault-free twin",
        lambda: compare_runs(experiments.CHAOS_CELLS, experiments.chaos_fields),
        (
            Verdict(
                "faults_requeue",
                "every faulted run re-queues at least one request",
                _every_faulted(lambda rows, r: r["requests_requeued"] >= 1),
            ),
            Verdict(
                "faults_detected",
                "every faulted run detects its fault after a positive delay",
                _every_faulted(lambda rows, r: r["detection_latency_s"] > 0),
            ),
            Verdict(
                "faults_cost_slo",
                "no faulted run beats its fault-free twin's SLO attainment",
                _every_faulted(
                    lambda rows, r: r["slo_attainment"] <= _healthy(rows, r)["slo_attainment"]
                ),
            ),
            Verdict(
                "goodput_bounded",
                "a faulted run meets the SLO for at most as many requests as its "
                "fault-free twin (goodput_vs_healthy <= 1)",
                _every_faulted(
                    lambda rows, r: r["goodput_vs_healthy"] is not None
                    and r["goodput_vs_healthy"] <= 1
                ),
            ),
        ),
        precision=4,
    ),
    Claim(
        "ext_chaos_fleet",
        "Extension - a 2-node WindServe fleet with a warm standby under fleet fault plans",
        lambda: compare_runs(experiments.FLEET_CHAOS_CELLS, experiments.chaos_fields),
        (
            Verdict(
                "member_crash_recovers",
                "every member-crash run loses one member and re-routes its requests",
                lambda rows: all(
                    r["member_crashes"] == 1 and r["retried"] >= 1
                    for r in rows
                    if r["plan"] == "member-crash"
                )
                and any(r["plan"] == "member-crash" for r in rows),
            ),
            Verdict(
                "nic_outage_retries",
                "a NIC outage under spanning pairs forces KV transfer retries and crashes "
                "no member",
                lambda rows: (r := row(rows, run="span"))["transfer_retries"] > 0
                and r["member_crashes"] == 0,
            ),
            Verdict(
                "limiter_sheds_over_rate_tenant",
                "the gateway rate limiter sheds only the tenant over its rate",
                lambda rows: row(rows, run="rate-limit")["rate_limited_tenants"] == "heavy",
            ),
        ),
        precision=4,
    ),
    Claim(
        "ext_prefix",
        "Extension - prefix-affinity vs least-loaded routing on a shared-prefix workload",
        lambda: compare_runs(
            experiments.prefix_cells(experiments.PREFIX_BASE), experiments.prefix_fields
        ),
        (
            Verdict(
                "warm_beats_cold",
                "prefix-hit requests see lower mean TTFT than cold shared-prefix ones in "
                "every run",
                lambda rows: bool(rows)
                and all(
                    r["warm_ttft"] is not None
                    and r["cold_ttft"] is not None
                    and r["warm_ttft"] < r["cold_ttft"]
                    for r in rows
                ),
            ),
            Verdict(
                "affinity_beats_blind",
                "prefix-affinity beats least-loaded on mean TTFT and total prefill tokens",
                lambda rows: (a := row(rows, run="prefix-affinity"))["mean_ttft"]
                < (b := row(rows, run="least-loaded"))["mean_ttft"]
                and a["prefill_tokens_computed"] < b["prefill_tokens_computed"],
            ),
        ),
        precision=4,
    ),
    Claim(
        "ext_tenants",
        "Extension - fair-share vs FIFO-within-tier under a heavy-tenant burst",
        _ext_tenants_rows,
        (
            Verdict(
                "isolation_holds",
                f"under fair-share the burst keeps light P99 TTFT within {ISOLATION_BOUND}x "
                "the no-burst baseline's",
                lambda rows: _isolated(rows, experiments.FAIRSHARE_RUN),
            ),
            Verdict(
                "fifo_violates",
                "FIFO-within-tier breaks the same bound on the same bytes",
                lambda rows: not _isolated(rows, experiments.FIFO_RUN),
            ),
            Verdict(
                "fairshare_beats_fifo",
                "fair-share beats FIFO on light P99 TTFT",
                lambda rows: _light_p99(rows, experiments.FAIRSHARE_RUN)
                < _light_p99(rows, experiments.FIFO_RUN),
            ),
        ),
        precision=4,
    ),
    Claim(
        "ext_hetero_fleet",
        "Extension - mixed A800+H100 fleet: seconds-based routing, and re-planning "
        "after a member crash",
        lambda: compare_runs(
            experiments.hetero_cells(experiments.HETERO_BASE), experiments.hetero_fields
        ),
        (
            Verdict(
                "routing_wins",
                "predicted-ttft beats least-loaded on mean TTFT on the mixed fleet",
                lambda rows: row(rows, run="route:predicted-ttft")["mean_ttft"]
                < row(rows, run="route:least-loaded")["mean_ttft"],
            ),
            Verdict(
                "replan_fired",
                "the replan arm re-planned at least one member",
                lambda rows: row(rows, run="crash:replan")["members_replanned"] >= 1,
            ),
            Verdict(
                "replan_recovers",
                "re-planning recovers at least the degraded run's SLO goodput",
                lambda rows: (r := row(rows, run="crash:replan"))["members_replanned"] > 0
                and r["slo_goodput"] >= row(rows, run="crash:no-replan")["slo_goodput"],
            ),
        ),
        precision=4,
    ),
)

CLAIMS: tuple[Claim, ...] = TABLES + FIGURES + ABLATIONS + EXTENSIONS


# -- readers ---------------------------------------------------------------------

HEADER = """\
# RESULTS

The paper's tables and figures as this reproduction measures them: one
section per claim of `src/repro/harness/claims.py`, in its order, each a
table followed by its checks.  `make results` rewrites this file
(`python -m repro claims > RESULTS.md`); tier-1's
`tests/integration/test_claims.py` runs every check and fails when this
file differs from a fresh render.  EXPERIMENTS.md reads the tables against
the paper's numbers.
"""


def run_claims(ids: Iterable[str] = ()) -> dict[str, Rows]:
    """Each named claim's rows (every claim's when none is named), by claim id."""
    ids = set(ids)
    unknown = ids - {claim.id for claim in CLAIMS}
    if unknown:
        raise ValueError(f"unknown claim id(s) {sorted(unknown)}")
    return {claim.id: claim.rows() for claim in CLAIMS if not ids or claim.id in ids}


def _claims_in(results: Mapping[str, Rows]) -> list[Claim]:
    return [claim for claim in CLAIMS if claim.id in results]


def failures(results: Mapping[str, Rows]) -> list[tuple[str, Verdict]]:
    """Every (claim id, check) that does not hold on ``results``."""
    return [
        (claim.id, verdict)
        for claim in _claims_in(results)
        for verdict in claim.checks
        if not verdict.check(results[claim.id])
    ]


def render(results: Mapping[str, Rows]) -> str:
    """``RESULTS.md``: each claim's table, then its checks marked."""
    sections = [HEADER]
    for claim in _claims_in(results):
        rows = results[claim.id]
        held = claim.verdicts(rows)
        marks = "\n".join(
            f"- [{'holds' if held[v.name] else 'FAILS'}] `{v.name}`: {v.claim}"
            for v in claim.checks
        )
        sections.append(f"## {claim.id}\n\n```\n{claim.table(rows)}\n```\n\n{marks}\n")
    return "\n".join(sections)
