"""Pin store: record, check, re-record and validate pinned outputs.

Every figure the reproduction claims rests on the simulator producing
identical outputs for identical seeds.  This module pins that down.  A
*pin* is a named producer declared here plus its recorded output under
``tests/golden/``.  There are two kinds:

- **trace** pins (:data:`GOLDEN_MATRIX`): small {scheduler x workload x
  seed} cells run with tracing on, stored as JSONL — a header with the run
  fingerprint, RNG registry and final per-request metrics, then one
  tag-filtered event per line.  A failed check names the first diverging
  event (time, component, tag, payload delta).
- **value** pins (:data:`VALUE_PINS`): a CLI verb's ``--json`` report, a
  run's summary and counters, a search result, or the fleet and
  single-system GPU layouts, stored whole as readable JSON.  A failed
  check names the changed keys and their deltas.

Both kinds share one header: format version, combined digest, and a
**provenance** block.  ``python -m repro golden check`` re-runs every
producer and diffs it against its recording.  ``python -m repro golden
rerecord --reason "..."`` refreshes pins after an intentional change: each
header chains every digest it ever replaced (reason, PR tag, prior digest,
what changed), and the rerecord prints one migration report of per-pin
deltas so reviewers audit *what changed and by how much* instead of
diffing SHA-256 hashes.  ``golden record`` stamps brand-new pins, and
``golden validate`` audits every stored header without re-running
anything (see ``docs/determinism.md``).
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations, product
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

from repro.baselines.distserve import DistServeSystem
from repro.core.config import FleetShape, WindServeConfig
from repro.core.fleet import build_windserve_fleet
from repro.core.replan import FleetReplanner
from repro.hardware.cluster import ClusterTopology
from repro.hardware.gpu import get_gpu
from repro.hardware.topology import NodeTopology
from repro.harness.capacity import find_capacity
from repro.harness.cell import Cell, CellRun
from repro.harness.placement_search import search_placement
from repro.harness.runner import SYSTEM_NAMES
from repro.models.parallelism import ParallelConfig
from repro.models.registry import get_model
from repro.serving.instance import InstanceConfig
from repro.serving.placement import (
    PLACEMENT_CANDIDATES,
    PlacementError,
    plan_colocated_placement,
    plan_pd_placement,
)
from repro.serving.system import SystemConfig
from repro.sim.fingerprint import RunFingerprint, canonical_json

#: Default location of the pin store, relative to the repo root.
DEFAULT_GOLDEN_DIR = Path("tests") / "golden"

#: Trace tags captured into goldens.  Scheduling decisions (batch launches,
#: swaps, migrations, assists) pin the interesting behaviour; omitting
#: nothing here that systems emit keeps the check strict while the small
#: scenario sizes keep files compact.
GOLDEN_TAGS = frozenset(
    {
        "batch-start",
        "finish",
        "swap-out",
        "swap-in",
        "recompute-preempt",
        "migration-start",
        "migration-done",
        "assist-start",
        "assist-done",
        # Fault-injection lifecycle + recovery decisions (chaos scenarios).
        "fault-inject",
        "fault-clear",
        "fault-detect",
        "fault-recover",
        "request-requeue",
        "request-shed",
        "transfer-retry",
        # Fleet-scope fault lifecycle (member crash -> detect -> re-route ->
        # standby promotion -> rejoin) for the fleet chaos scenarios.
        "member-crash",
        "member-detect",
        "member-rejoin",
        "member-replace",
        # Failure-reactive re-planning: a survivor widened over spare GPUs
        # (heterogeneous-fleet scenarios).
        "member-replan",
        "member-replan-done",
        # Preemptive-displacement decisions (admission_policy="preemptive").
        "preempt-displace",
        # Automatic prefix caching: shortened prefills + cache publications.
        "prefix-hit",
        "prefix-insert",
        # Fair-share tenancy: per-tenant budget enforcement decisions.
        "budget-shed",
        # The replanning baseline's stall-and-restart window.
        "replan-start",
        "replan-done",
    }
)

#: Format version of every stored header (version 2 added provenance).
GOLDEN_FORMAT_VERSION = 2

#: Schema version of the ``provenance`` header block.
PROVENANCE_FORMAT_VERSION = 1

#: Reason stamped by ``golden record`` when none is given: a fresh
#: recording of a new pin, with no prior digest to chain.
INITIAL_RECORD_REASON = "initial record"


#: The recorded matrix, one named :class:`~repro.harness.cell.Cell` per
#: golden.  Keep scenarios small (tens of requests): goldens live in git and
#: the check runs on every push.
GOLDEN_MATRIX: tuple[Cell, ...] = (
    *(
        cell
        for system in ("windserve", "distserve", "vllm")
        for cell in (
            Cell(name=f"{system}-poisson-r3-s0", system=system, num_requests=25),
            Cell(
                name=f"{system}-bursty-r3.5-s7",
                system=system,
                rate_per_gpu=3.5,
                seed=7,
                num_requests=25,
                arrival_process="bursty",
            ),
        )
    ),
    # Memory-pressure cells: a tiny KV pool on a single-GPU decode instance
    # makes swaps and WindServe migrations fire, pinning those code paths.
    *(
        Cell(
            name=f"{system}-pressure-r3.5-s3",
            system=system,
            rate_per_gpu=3.5,
            seed=3,
            num_requests=50,
            kv_override_tokens=4096,
            decode_parallel=(1, 1),
        )
        for system in ("windserve", "distserve")
    ),
    # Chaos cells: pin the failure-detection, re-queue, and retry paths so a
    # scheduler change cannot silently alter recovery behaviour.
    Cell(name="windserve-chaos-crash-s1", seed=1, fault_plan="decode-crash"),
    Cell(
        name="windserve-chaos-linkdeg-s2",
        seed=2,
        arrival_process="bursty",
        fault_plan="link-degrade",
    ),
    # Baseline chaos cell: pins a baseline system's retry-with-backoff path
    # under a hard link outage (the windserve cells cover crash/degrade).
    Cell(
        name="distserve-chaos-outage-s4", system="distserve", seed=4, fault_plan="link-outage"
    ),
    # Fleet chaos cells: a correlated node crash forces detection plus
    # cross-node re-routing; a member crash with warm standby pins the
    # failure-reactive promotion path (member-replace).
    Cell(
        name="fleet-chaos-node-s5",
        rate_per_gpu=2.0,
        seed=5,
        fault_plan="node-crash",
        fleet_nodes=2,
    ),
    Cell(
        name="fleet-chaos-promote-s6",
        rate_per_gpu=2.0,
        seed=6,
        fault_plan="member-crash",
        fleet_nodes=2,
        fleet_standby=1,
    ),
    # Baseline chaos coverage: the straggler (slow-GPU) and mixed
    # (crash+degrade+straggler) plans on DistServe, and a crash plan on
    # vLLM (its injector targets the last replica), so every baseline's
    # recovery path is pinned — not just WindServe's.
    Cell(
        name="distserve-chaos-straggler-s8", system="distserve", seed=8, fault_plan="straggler"
    ),
    Cell(
        name="distserve-chaos-mixed-s9",
        system="distserve",
        seed=9,
        arrival_process="bursty",
        fault_plan="mixed",
    ),
    Cell(name="vllm-chaos-crash-s10", system="vllm", seed=10, fault_plan="decode-crash"),
    # SLO-tier cell: a three-tier mix under a crash with a tight degraded
    # in-flight cap pins priority-ordered admission/shedding (best-effort
    # shed first) and the tiered trace payloads.
    Cell(
        name="windserve-chaos-tiered-s11",
        rate_per_gpu=3.5,
        seed=11,
        num_requests=60,
        fault_plan="decode-crash",
        tier_mix="interactive=0.25,standard=0.5,best_effort=0.25",
        shed_limit=8,
    ),
    # Scheduling-policy cell: a tiered fleet under a member crash routed by
    # the tier-aware policy — pins the tier-weighted routing decisions (and
    # the non-baseline policy identity in the fingerprint).
    Cell(
        name="windserve-fleet-tieraware-s12",
        rate_per_gpu=2.0,
        seed=12,
        num_requests=48,
        fault_plan="member-crash",
        fleet_nodes=2,
        fleet_policy="tier-aware",
        tier_mix="interactive=0.25,standard=0.5,best_effort=0.25",
    ),
    # Prefix-caching cell: a shared-prefix workload against a WindServe
    # system with the warm-prefix index on — pins the shortened-prefill
    # (prefix-hit) and cache-publication (prefix-insert) decisions, the
    # prefix-carrying request rows, and the prefix RNG stream.
    Cell(
        name="windserve-prefix-s13",
        seed=13,
        prefix_mix="none=0.25,assistant=0.5:384,fewshot=0.25:640",
        prefix_cache_tokens=4096,
    ),
    # Tenancy cell: a 1-heavy/2-light tenant mix over SLO tiers under
    # fair-share admission with a tight per-tenant in-flight budget — pins
    # the WFQ queue ordering, the per-tenant budget-shed decisions, the
    # tenant-carrying request rows, and the tenants RNG stream.
    Cell(
        name="windserve-tenants-s14",
        rate_per_gpu=3.5,
        seed=14,
        num_requests=60,
        admission_policy="fair-share",
        tier_mix="interactive=0.25,standard=0.5,best_effort=0.25",
        tenant_mix="acme=0.6,beta=0.2,gamma=0.2",
        tenant_weights="acme=1,beta=3,gamma=3",
        tenant_max_inflight=4,
    ),
    # Heterogeneous-fleet cell: a mixed narrow-A800/H100 shape routed in
    # estimated seconds (predicted-ttft), with the member-crash plan taking
    # out the H100 and the failure-reactive re-planner widening a survivor
    # over its home node's spare GPUs — pins the per-member hardware in the
    # request rows, the replan decisions (member-replan[-done]), the
    # crash-requeue conservation path, and the fleet-shape + replan policy
    # identity in the fingerprint.
    Cell(
        name="windserve-hetero-s15",
        seed=15,
        num_requests=48,
        fault_plan="member-crash",
        fleet_nodes=3,
        fleet_pairs_per_node=1,
        fleet_policy="predicted-ttft",
        fleet_shape="a800:1:1x1+1x1,h100:1:2x1+2x1,a800:1:1x1+1x1",
        fleet_replan=True,
    ),
    # Fault paths no cell above reaches: a host-link stall under memory
    # pressure (swap traffic rides the stalled PCIe path), and the two
    # NIC-carrying fleet plans on node-spanning members.
    Cell(
        name="windserve-chaos-hoststall-s16",
        rate_per_gpu=3.5,
        seed=16,
        num_requests=50,
        kv_override_tokens=4096,
        decode_parallel=(1, 1),
        fault_plan="host-stall",
    ),
    Cell(
        name="fleet-chaos-nicdegrade-s17",
        rate_per_gpu=2.0,
        seed=17,
        fault_plan="nic-degrade",
        fleet_nodes=2,
        fleet_span_nodes=True,
    ),
    Cell(
        name="fleet-chaos-mixed-s18",
        rate_per_gpu=2.0,
        seed=18,
        fault_plan="fleet-mixed",
        fleet_nodes=3,
        fleet_span_nodes=True,
    ),
    # Replanning-baseline cell: LongBench's long prompts make the mirror
    # (prefill-heavy) placement win mid-run, so the baseline stalls and
    # restarts once — pins its replan window and the work it loses.
    Cell(
        name="distserve-replan-longbench-s19",
        system="distserve-replan",
        dataset="longbench",
        rate_per_gpu=1.0,
        num_requests=120,
        seed=19,
        prefill_parallel=(2, 1),
        decode_parallel=(2, 3),
    ),
)


# -- value pins ---------------------------------------------------------------


@dataclass(frozen=True)
class ValuePin:
    """A named producer whose JSON output is pinned whole.

    ``render`` is the text the pin's digest hashes — canonical JSON by
    default, a verb's exact ``--json`` stdout for :func:`_verb` pins — and
    the stored value is that text parsed back.
    """

    name: str
    produce: Callable[[], Any]
    render: Callable[[Any], str] = canonical_json

    def digest(self, value: Any) -> str:
        return _sha256(self.render(value))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _verb_stdout(report: Any) -> str:
    """What ``--json`` prints: the report at indent 2, then a newline."""
    return json.dumps(report, indent=2) + "\n"


def _verb(name: str, command: str) -> ValuePin:
    """Pin the ``--json`` report of one ``python -m repro`` command line.

    The verb must exit 0 (``run``: its run kept every invariant) and print
    its report and nothing else.
    """
    argv = [*command.split(), "--json"]

    def produce() -> Any:
        from repro.cli import main  # the CLI imports this module

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(argv)
        if status != 0:
            raise ValueError(f"`repro {command}` exited {status}: {err.getvalue().strip()}")
        report = json.loads(out.getvalue())
        if _verb_stdout(report) != out.getvalue():
            raise ValueError(f"`repro {command} --json` stdout is not its report at indent 2")
        return report

    return ValuePin(f"verb-{name}", produce, _verb_stdout)


def _run(name: str, **fields: Any) -> ValuePin:
    """Pin one 120-request cell's warm-up-trimmed summary plus its counters."""
    cell = Cell(**{"num_requests": 120, **fields})

    def produce() -> dict:
        run = cell.run()
        return {"summary": run.summary(), "counters": dict(run.metrics.counters)}

    return ValuePin(f"run-{name}", produce)


def _ranking(scores) -> list:
    return [[s.label(), s.slo_attainment, s.goodput_per_gpu] for s in scores]


def _placed(gpus, p: ParallelConfig) -> dict:
    """One instance's GPU ids, TP, PP and bound TP link bandwidth."""
    return {"gpus": list(gpus), "tp": p.tp, "pp": p.pp, "tp_link_gbps": p.tp_link_gbps}


def _layout(fleet) -> list[dict]:
    """Per member: its name, and each instance's placement and GPU type."""

    def instance(inst) -> dict:
        return {**_placed(inst.gpus, inst.parallel), "gpu": inst.gpu.name}

    return [
        {
            "name": m.name,
            "prefill": instance(m.prefill_instance),
            "decode": instance(m.decode_instance),
        }
        for m in fleet.members
    ]


def fleet_layout_cases() -> dict[str, Callable[[], Any]]:
    """Every fleet the layout pin records, by case: a zero-argument builder.

    Cases: the fleet goldens; homogeneous WindServe/DistServe fleets over
    node counts, pairs per node, span mode and three parallelisms; shaped
    fleets; and hetero-s15 with one or two members failed under the
    re-planner.
    """

    def config() -> SystemConfig:
        return SystemConfig(model=get_model("opt-13b"))

    def homogeneous(system, nodes, pairs, span, prefill, decode):
        return build_windserve_fleet(
            config(),
            ClusterTopology(num_nodes=nodes, gpus_per_node=8),
            prefill_parallel=ParallelConfig(*prefill),
            decode_parallel=ParallelConfig(*decode),
            pairs_per_node=pairs,
            system_factory=DistServeSystem if system == "distserve" else None,
            span_nodes=span,
        )

    def shaped(spec, pairs, span):
        return build_windserve_fleet(
            config(), pairs_per_node=pairs, span_nodes=span, shape=FleetShape.parse(spec)
        )

    def replan(*deaths):
        fleet = shaped("a800:1:1x1+1x1,h100:1:2x1+2x1,a800:1:1x1+1x1", 1, False)
        fleet.replanner = FleetReplanner()
        for index in deaths:
            fleet.fail_member(index)
        return fleet

    parallelisms = {
        "tp2/tp2": ((2, 1), (2, 1)),
        "tp1/tp2": ((1, 1), (2, 1)),
        "tp2pp2/tp1": ((2, 2), (1, 1)),
    }
    shapes = ("a800,h100,a800", "a800:2,h100:2", "a800:1:1x1+1x1,h100", "h100:2:2x1+2x2")
    cases = {f"golden:{c.name}": c.build for c in GOLDEN_MATRIX if c.is_fleet}
    for system, nodes, pairs, span, par in product(
        ("windserve", "distserve"), (1, 2, 3), (1, 2), (False, True), parallelisms
    ):
        cases[f"{system}:n{nodes}:p{pairs}:span={span}:{par}"] = partial(
            homogeneous, system, nodes, pairs, span, *parallelisms[par]
        )
    for spec, pairs, span in product(shapes, (1, 2), (False, True)):
        cases[f"shape:{spec}:p{pairs}:span={span}"] = partial(shaped, spec, pairs, span)
    for deaths in (*permutations(range(3), 1), *permutations(range(3), 2)):
        cases["replan:" + ",".join(map(str, deaths))] = partial(replan, *deaths)
    return cases


def fleet_layout(build: Callable[[], Any]) -> Union[list, str]:
    """One case's layout, or ``"ValueError"`` if the builder rejects it."""
    try:
        return _layout(build())
    except ValueError:
        return "ValueError"


def _fleet_layouts() -> dict:
    return {key: fleet_layout(build) for key, build in fleet_layout_cases().items()}


def _placement_layouts() -> dict:
    """Single-system layouts on 2/4/8-GPU nodes of three GPU types: a P/D
    pair per placement candidate, and 1-4 colocated replicas of TP-1, TP-2
    and TP-2xPP-2; ``"PlacementError"`` where the planner rejects one."""

    def record(plan: Callable[[], Any]) -> Any:
        try:
            return plan()
        except PlacementError:
            return "PlacementError"

    def pd(node, p, d) -> dict:
        pl = plan_pd_placement(node, ParallelConfig(*p), ParallelConfig(*d))
        return {
            "prefill": _placed(pl.prefill_gpus, pl.prefill_parallel),
            "decode": _placed(pl.decode_gpus, pl.decode_parallel),
        }

    def colocated(node, par, replicas) -> list:
        return [
            _placed(*r) for r in plan_colocated_placement(node, ParallelConfig(*par), replicas)
        ]

    layouts = {}
    for gpu, n in product(("a800-80gb", "h100-80gb", "rtx-4090"), (2, 4, 8)):
        node = NodeTopology(get_gpu(gpu), num_gpus=n)
        for (ptp, ppp), (dtp, dpp) in PLACEMENT_CANDIDATES:
            layouts[f"pd:{gpu}:{n}:{ptp}x{ppp}+{dtp}x{dpp}"] = record(
                partial(pd, node, (ptp, ppp), (dtp, dpp))
            )
        for (tp, pp), replicas in product(((1, 1), (2, 1), (2, 2)), range(1, 5)):
            layouts[f"colocated:{gpu}:{n}:{tp}x{pp}*{replicas}"] = record(
                partial(colocated, node, (tp, pp), replicas)
            )
    return layouts


_TIERS = "interactive=0.3,standard=0.4,best_effort=0.3"

#: The value pins.  Keep producers to seconds each: the check runs them all.
VALUE_PINS: tuple[ValuePin, ...] = (
    # The single-system verbs.
    _verb("run", "run --system distserve --rate 3 --requests 40"),
    _verb("sweep", "sweep --systems windserve,vllm --rates 2,4 --requests 40"),
    _verb("placement", "placement --rate 1.5 --node-gpus 4 --requests 40"),
    _verb("breakdown", "breakdown --rate 2 --prefill-parallel 1 --requests 40"),
    # Every system on both headline workloads, then one run per Cell field
    # the run path threads through to the system it builds.
    *(_run(f"{s}-opt-13b-sharegpt", system=s, rate_per_gpu=4.5) for s in SYSTEM_NAMES),
    *(
        _run(
            f"{s}-llama2-13b-longbench",
            system=s,
            model="llama2-13b",
            dataset="longbench",
            rate_per_gpu=2.2,
        )
        for s in SYSTEM_NAMES
    ),
    _run("ws_config", ws_config=WindServeConfig(dispatch_threshold_frac=0.5)),
    _run("instance_config", system="vllm", instance_config=InstanceConfig(max_batched_tokens=256)),
    _run(
        "decode_instance_config",
        decode_instance_config=InstanceConfig(kv_capacity_override_tokens=16384),
    ),
    _run("prefill_parallel", prefill_parallel=(2, 2)),
    _run("num_node_gpus", num_node_gpus=4, prefill_parallel=(1, 1), decode_parallel=(1, 1)),
    _run("gpu", model="llama2-7b", gpu="rtx-4090", rate_per_gpu=1.5),
    _run("shed_limit", shed_limit=8, tier_mix=_TIERS),
    _run(
        "preemptive",
        admission_policy="preemptive",
        instance_config=InstanceConfig(
            preemption_policy="tier-aware", kv_capacity_override_tokens=8192
        ),
        tier_mix=_TIERS,
        rate_per_gpu=4.5,
    ),
    # The searches: two placement rankings and a capacity bisection.
    ValuePin(
        "search-placement-opt-13b",
        lambda: _ranking(
            search_placement("distserve", "opt-13b", "sharegpt", 1.5, num_requests=60)
        ),
    ),
    ValuePin(
        "search-placement-rtx-4090",
        lambda: _ranking(
            search_placement(
                "windserve", "llama2-7b", "sharegpt", 1.5, num_requests=60, gpu="rtx-4090"
            )
        ),
    ),
    ValuePin(
        "search-capacity",
        lambda: vars(
            find_capacity(
                Cell(num_requests=60, seed=5),
                target_attainment=0.5,
                low=0.5,
                high=8.0,
                iterations=3,
            )
        ),
    ),
    ValuePin("fleet-layouts", _fleet_layouts),
    ValuePin("placement-layouts", _placement_layouts),
)

Pin = Union[Cell, ValuePin]

#: Every pin, trace pins first.
PINS: tuple[Pin, ...] = (*GOLDEN_MATRIX, *VALUE_PINS)


# -- store I/O ----------------------------------------------------------------


def golden_path(directory: Path, name: str) -> Path:
    """A pin's file: ``<name>.json`` for a value pin, else ``<name>.jsonl``."""
    value = any(isinstance(p, ValuePin) and p.name == name for p in PINS)
    return Path(directory) / f"{name}.{'json' if value else 'jsonl'}"


def initial_provenance(reason: Optional[str] = None, tag: Optional[str] = None) -> dict:
    """Provenance block for a first recording: no prior digest."""
    provenance = {
        "format": PROVENANCE_FORMAT_VERSION,
        "reason": reason or INITIAL_RECORD_REASON,
        "prior": None,
        "chain": [],
        "changed": [],
    }
    if tag:
        provenance["tag"] = tag
    return provenance


def _trace_header(run: CellRun) -> dict:
    return {
        "golden": GOLDEN_FORMAT_VERSION,
        "scenario": run.cell.meta(),
        "fingerprint": run.fingerprint.as_dict(),
        "combined": run.fingerprint.value,
        "events": len(run.event_rows),
        "rng": list(run.rng_registry),
        "requests": run.request_rows,
    }


def _record(pin: Pin) -> tuple[dict, Any]:
    """Run one pin's producer: the header (less provenance) and body to store."""
    if isinstance(pin, Cell):
        run = pin.run(trace_tags=GOLDEN_TAGS)
        return _trace_header(run), run.event_rows
    text = pin.render(pin.produce())
    header = {"golden": GOLDEN_FORMAT_VERSION, "pin": pin.name, "combined": _sha256(text)}
    return header, json.loads(text)


def _write(path: Path, header: dict, body: Any) -> Path:
    """Store one recording: JSONL (the header, then one event per line) for
    a trace pin, one indented JSON document for a value pin."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".jsonl":
        path.write_text("".join(canonical_json(row) + "\n" for row in [header, *body]))
    else:
        path.write_text(json.dumps({**header, "value": body}, indent=1) + "\n")
    return path


def save_golden(run: CellRun, directory: Path, provenance: Optional[dict] = None) -> Path:
    """Write one trace run's golden JSONL."""
    if provenance is None:
        provenance = initial_provenance()
    header = {**_trace_header(run), "provenance": provenance}
    return _write(golden_path(directory, run.cell.name), header, run.event_rows)


def load_golden(path: Path) -> tuple[dict, Any]:
    """Read a recording back as (header, body).

    The body is the event rows of a trace pin, the stored value of a value
    pin.  Only the current format version is accepted.
    """
    path = Path(path)
    if path.suffix == ".jsonl":
        lines = [line for line in path.read_text().splitlines() if line]
        if not lines:
            raise ValueError(f"golden file {path} is empty")
        header, body = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
    else:
        header = json.loads(path.read_text())
        body = header.pop("value", None)
    if header.get("golden") != GOLDEN_FORMAT_VERSION:
        raise ValueError(
            f"golden file {path} has format version {header.get('golden')!r}; "
            f"expected {GOLDEN_FORMAT_VERSION} — re-record with "
            f"`python -m repro golden rerecord --reason ...`"
        )
    return header, body


def record_goldens(
    directory: Path = DEFAULT_GOLDEN_DIR,
    only: Optional[Sequence[str]] = None,
    reason: Optional[str] = None,
    tag: Optional[str] = None,
) -> list[Path]:
    """Run every pin (or a named subset) and write its recording.

    This is the verb for *new* pins: it stamps an initial provenance block
    with no prior digest.  Refreshing an existing pin after an intentional
    behaviour change goes through :func:`rerecord_goldens`, which preserves
    the digest chain.
    """
    provenance = initial_provenance(reason, tag)
    paths = []
    for pin in _select(only):
        header, body = _record(pin)
        path = golden_path(directory, pin.name)
        paths.append(_write(path, {**header, "provenance": provenance}, body))
    return paths


# -- provenance-tracked re-recording ------------------------------------------


def _fingerprint_from_header(fp: dict) -> RunFingerprint:
    """Rebuild a :class:`RunFingerprint` from a golden header's dict form."""
    return RunFingerprint(
        trace_hash=fp["trace"],
        requests_hash=fp["requests"],
        rng_hash=fp["rng"],
        events_processed=fp["events_processed"],
        horizon=fp["horizon"],
        version=fp["version"],
        policies=tuple(sorted(fp.get("policies", {}).items())),
    )


def scenario_metrics(request_rows: Sequence[dict], event_rows: Sequence[dict]) -> dict:
    """Reviewer-facing summary metrics of one recorded trace.

    Derived purely from a golden's stored artefacts so old and new sides of
    a rerecord are measured identically: mean TTFT/TPOT and makespan from
    the per-request rows, shed/requeue counts from the event stream.
    """
    ttfts = [r["first_token"] - r["arrival"] for r in request_rows]
    tpots = [
        (r["finish"] - r["first_token"]) / (r["output"] - 1)
        for r in request_rows
        if r["output"] > 1
    ]
    tags = [row["g"] for row in event_rows]
    return {
        "completed": len(request_rows),
        "mean_ttft": sum(ttfts) / len(ttfts) if ttfts else 0.0,
        "mean_tpot": sum(tpots) / len(tpots) if tpots else 0.0,
        "makespan": max((r["finish"] for r in request_rows), default=0.0),
        "shed": tags.count("request-shed"),
        "requeued": tags.count("request-requeue"),
    }


def _flatten(value: Any, prefix: str = "") -> dict:
    """A JSON value's leaves keyed by dotted path (empty containers are leaves)."""
    if isinstance(value, dict) and value:
        items = value.items()
    elif isinstance(value, list) and value:
        items = enumerate(value)
    else:
        return {prefix or "value": value}
    flat = {}
    for key, item in items:
        flat.update(_flatten(item, f"{prefix}.{key}" if prefix else str(key)))
    return flat


def _metrics(pin: Pin, header: dict, body: Any) -> dict:
    """The flat values a migration report compares for one recording."""
    if isinstance(pin, Cell):
        return scenario_metrics(header["requests"], body)
    return _flatten(body)


_ABSENT = "<absent>"


def _changed_keys(old: dict, new: dict) -> list[str]:
    return [
        key
        for key in dict.fromkeys([*old, *new])
        if repr(old.get(key, _ABSENT)) != repr(new.get(key, _ABSENT))
    ]


def _changed(pin: Pin, old_header: dict, old_body: Any, header: dict, body: Any) -> list[str]:
    """What moved: fingerprint components of a trace pin, top-level keys of a
    value pin."""
    if isinstance(pin, Cell):
        prior = _fingerprint_from_header(old_header["fingerprint"])
        return prior.explain_mismatch(_fingerprint_from_header(header["fingerprint"]))
    if isinstance(old_body, dict) and isinstance(body, dict):
        return _changed_keys(old_body, body)
    return [] if repr(old_body) == repr(body) else ["value"]


@dataclass
class RerecordOutcome:
    """One pin's before/after accounting from a provenance rerecord."""

    pin: str
    path: Path
    prior_combined: str
    new_combined: str
    changed: list[str]
    old_metrics: dict
    new_metrics: dict

    @property
    def identical(self) -> bool:
        return self.prior_combined == self.new_combined


def rerecord_goldens(
    directory: Path = DEFAULT_GOLDEN_DIR,
    *,
    reason: str,
    tag: Optional[str] = None,
    only: Optional[Sequence[str]] = None,
) -> list[RerecordOutcome]:
    """Re-run each pin and replace its recording, chaining provenance.

    For every selected pin the existing recording *must* be present: its
    combined digest (and, for a trace pin, its fingerprint) becomes the new
    header's ``provenance.prior``, the digest is appended to
    ``provenance.chain`` (oldest first), and what changed is stored as
    ``provenance.changed``.  Returns one :class:`RerecordOutcome` per pin
    for the migration report.
    """
    if not reason or not reason.strip():
        raise ValueError("rerecord requires a non-empty --reason")
    outcomes = []
    for pin in _select(only):
        path = golden_path(directory, pin.name)
        if not path.exists():
            raise ValueError(
                f"no golden recorded at {path} — new pins are recorded "
                f"with `python -m repro golden record`, not rerecord"
            )
        old_header, old_body = load_golden(path)
        header, body = _record(pin)
        changed = _changed(pin, old_header, old_body, header, body)
        provenance = {
            "format": PROVENANCE_FORMAT_VERSION,
            "reason": reason,
            "prior": {k: old_header[k] for k in ("combined", "fingerprint") if k in old_header},
            "chain": [*old_header["provenance"]["chain"], old_header["combined"]],
            "changed": changed,
        }
        if tag:
            provenance["tag"] = tag
        _write(path, {**header, "provenance": provenance}, body)
        outcomes.append(
            RerecordOutcome(
                pin=pin.name,
                path=path,
                prior_combined=old_header["combined"],
                new_combined=header["combined"],
                changed=changed,
                old_metrics=_metrics(pin, old_header, old_body),
                new_metrics=_metrics(pin, header, body),
            )
        )
    return outcomes


#: Changed keys listed per pin in a report or a failed check.
_REPORT_KEYS = 12


def _delta(old: Any, new: Any) -> str:
    def short(v: Any) -> str:
        text = repr(v)
        return text if len(text) <= 24 else text[:20] + "..."

    numbers = [v for v in (old, new) if isinstance(v, (int, float)) and not isinstance(v, bool)]
    if len(numbers) < 2:
        return f"{short(old)} -> {short(new)}"
    delta = new - old
    rel = f" ({delta / old:+.3%})" if old else ""
    change = f"{delta:+d}" if isinstance(delta, int) else f"{delta:+.6g}"
    return f"{old:.9g} -> {new:.9g}  {change}{rel}"


def _delta_lines(old: dict, new: dict) -> list[str]:
    """One line per changed key of two flat dicts, numbers with their deltas."""
    keys = _changed_keys(old, new)
    lines = [
        f"{key}  {_delta(old.get(key, _ABSENT), new.get(key, _ABSENT))}"
        for key in keys[:_REPORT_KEYS]
    ]
    if len(keys) > _REPORT_KEYS:
        lines.append(f"... and {len(keys) - _REPORT_KEYS} more changed key(s)")
    return lines


def render_migration_report(outcomes: Sequence[RerecordOutcome]) -> str:
    """Human-readable per-pin deltas from a rerecord.

    This is the artefact a reviewer reads instead of a stack of hash
    diffs: what each pin's values did under the intentional change — the
    headline metrics of a trace pin, the changed keys of a value pin.
    """
    lines = ["golden migration report", "======================="]
    changed_count = sum(not o.identical for o in outcomes)
    lines.append(
        f"{len(outcomes)} pin(s) re-recorded; "
        f"{changed_count} changed, {len(outcomes) - changed_count} byte-identical"
    )
    for o in outcomes:
        lines.append("")
        status = "unchanged" if o.identical else "changed: " + ", ".join(o.changed)
        lines.append(f"{o.pin}  [{status}]")
        lines.append(f"    digest {o.prior_combined[:12]} -> {o.new_combined[:12]}")
        if not o.identical:
            lines.extend(f"    {line}" for line in _delta_lines(o.old_metrics, o.new_metrics))
    return "\n".join(lines)


# -- store validation ---------------------------------------------------------

_HEX64 = 64


def _is_combined_digest(value: object) -> bool:
    return (
        isinstance(value, str)
        and len(value) == _HEX64
        and all(c in "0123456789abcdef" for c in value)
    )


def validate_provenance(provenance: object, *, trace: bool = True) -> list[str]:
    """Problems with one header's provenance block (empty list = valid).

    A trace pin's prior also carries the replaced run fingerprint.
    """
    if not isinstance(provenance, dict):
        return ["provenance block missing or not an object"]
    problems = []
    if provenance.get("format") != PROVENANCE_FORMAT_VERSION:
        problems.append(
            f"provenance format {provenance.get('format')!r} != "
            f"{PROVENANCE_FORMAT_VERSION}"
        )
    reason = provenance.get("reason")
    if not isinstance(reason, str) or not reason.strip():
        problems.append("provenance reason missing or empty")
    tag = provenance.get("tag")
    if tag is not None and (not isinstance(tag, str) or not tag.strip()):
        problems.append("provenance tag present but empty")
    chain = provenance.get("chain")
    if not isinstance(chain, list) or not all(_is_combined_digest(c) for c in chain):
        problems.append("provenance chain must be a list of combined digests")
        chain = None
    changed = provenance.get("changed")
    if not isinstance(changed, list) or not all(isinstance(c, str) for c in changed):
        problems.append("provenance changed must be a list of component names")
    prior = provenance.get("prior", "<absent>")
    if prior == "<absent>":
        problems.append("provenance prior missing (use null for initial records)")
    elif prior is None:
        if chain:
            problems.append("initial record must have an empty chain")
    elif isinstance(prior, dict):
        if not _is_combined_digest(prior.get("combined")):
            problems.append("provenance prior.combined is not a digest")
        if trace and not isinstance(prior.get("fingerprint"), dict):
            problems.append("provenance prior.fingerprint missing")
        elif chain is not None and (not chain or chain[-1] != prior.get("combined")):
            problems.append(
                "provenance chain does not end at prior.combined — the "
                "prior-digest chain is broken"
            )
    else:
        problems.append("provenance prior must be null or an object")
    return problems


def validate_golden_store(
    directory: Path = DEFAULT_GOLDEN_DIR, only: Optional[Sequence[str]] = None
) -> list[str]:
    """Validate every stored pin's header against its body.

    Cheap (no producer runs): parses each file, checks the format version,
    that the provenance block is well-formed and its chain intact, and that
    the header agrees with the stored body — a trace's event count, a
    value's digest.  Returns a flat list of ``"<pin>: <problem>"`` strings;
    empty means the store is auditable.
    """
    problems = []
    for pin in _select(only):
        path = golden_path(directory, pin.name)
        if not path.exists():
            problems.append(f"{pin.name}: no golden recorded at {path}")
            continue
        try:
            header, body = load_golden(path)
        except ValueError as exc:
            problems.append(f"{pin.name}: {exc}")
            continue
        trace = isinstance(pin, Cell)
        if trace and header.get("events") != len(body):
            problems.append(
                f"{pin.name}: header says {header.get('events')} events, "
                f"file holds {len(body)}"
            )
        if not _is_combined_digest(header.get("combined")):
            problems.append(f"{pin.name}: combined digest malformed")
        elif not trace and pin.digest(body) != header["combined"]:
            problems.append(
                f"{pin.name}: stored value does not hash to the header's combined "
                f"digest — edited by hand?"
            )
        problems.extend(
            f"{pin.name}: {p}"
            for p in validate_provenance(header.get("provenance"), trace=trace)
        )
    return problems


# -- diffing ------------------------------------------------------------------


@dataclass
class GoldenDiff:
    """Outcome of checking one pin against its recording."""

    pin: str
    messages: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.messages

    def report(self) -> str:
        status = "ok" if self.passed else "DIVERGED"
        lines = [f"[{status}] {self.pin}"]
        lines.extend(f"    {m}" for m in self.messages)
        return "\n".join(lines)


def _payload_delta(expected: dict, actual: dict) -> str:
    keys = sorted(set(expected) | set(actual))
    parts = []
    for key in keys:
        exp, act = expected.get(key, "<absent>"), actual.get(key, "<absent>")
        if exp != act:
            parts.append(f"{key}: {exp!r} -> {act!r}")
    return "; ".join(parts) if parts else "(payloads equal)"


def first_event_divergence(
    expected: Sequence[dict], actual: Sequence[dict]
) -> Optional[str]:
    """Human-readable description of the first diverging trace event."""
    for index, (exp, act) in enumerate(zip(expected, actual)):
        if exp == act:
            continue
        lines = [
            f"first divergence at event #{index}:",
            f"  expected t={exp['t']:.6f} {exp['c']} {exp['g']}",
            f"  actual   t={act['t']:.6f} {act['c']} {act['g']}",
        ]
        if exp["c"] == act["c"] and exp["g"] == act["g"]:
            lines.append(f"  payload delta: {_payload_delta(exp['p'], act['p'])}")
        return "\n    ".join(lines)
    if len(expected) != len(actual):
        if len(actual) > len(expected):
            extra = actual[len(expected)]
            return (
                f"actual run has {len(actual) - len(expected)} extra events; first "
                f"extra: t={extra['t']:.6f} {extra['c']} {extra['g']}"
            )
        missing = expected[len(actual)]
        return (
            f"actual run is missing {len(expected) - len(actual)} events; first "
            f"missing: t={missing['t']:.6f} {missing['c']} {missing['g']}"
        )
    return None


def _first_request_divergence(
    expected: Sequence[dict], actual: Sequence[dict]
) -> Optional[str]:
    for exp, act in zip(expected, actual):
        if exp != act:
            return f"first diverging request id={exp['id']}: {_payload_delta(exp, act)}"
    if len(expected) != len(actual):
        return f"completed-request count changed: {len(expected)} -> {len(actual)}"
    return None


def _divergence(pin: Pin, header: dict, body: Any, new_header: dict, new_body: Any) -> list[str]:
    """Why a fresh recording differs from the stored one (empty: it does not)."""
    if header["combined"] == new_header["combined"]:
        return []
    changed = _changed(pin, header, body, new_header, new_body)
    if not isinstance(pin, Cell):
        return [
            "value mismatch in: " + (", ".join(changed) or "digest"),
            *_delta_lines(_flatten(body), _flatten(new_body)),
        ]
    messages = ["fingerprint mismatch in: " + (", ".join(changed) or "combined digest")]
    event_diff = first_event_divergence(body, new_body)
    if event_diff is not None:
        messages.append(event_diff)
    request_diff = _first_request_divergence(header.get("requests", []), new_header["requests"])
    if request_diff is not None:
        messages.append(request_diff)
    if list(header.get("rng", [])) != new_header["rng"]:
        recorded_rng, actual_rng = set(header.get("rng", [])), set(new_header["rng"])
        added = sorted(actual_rng - recorded_rng)
        removed = sorted(recorded_rng - actual_rng)
        parts = []
        if added:
            parts.append(f"new streams {added}")
        if removed:
            parts.append(f"vanished streams {removed}")
        messages.append("RNG stream registry changed: " + ("; ".join(parts) or "order changed"))
    return messages


def diff_against_golden(path: Path, run: CellRun) -> GoldenDiff:
    """Compare a fresh trace run against its stored golden file."""
    header, events = load_golden(path)
    return GoldenDiff(
        run.cell.name, _divergence(run.cell, header, events, _trace_header(run), run.event_rows)
    )


def check_goldens(
    directory: Path = DEFAULT_GOLDEN_DIR, only: Optional[Sequence[str]] = None
) -> list[GoldenDiff]:
    """Re-run every pin (or a named subset) and diff it against its recording.

    Returns one :class:`GoldenDiff` per pin; all ``passed`` means the store
    is clean.  A missing recording, or a producer that fails (a verb that
    exits non-zero), is reported as a failure.
    """
    diffs = []
    for pin in _select(only):
        diff = GoldenDiff(pin.name)
        path = golden_path(directory, pin.name)
        if not path.exists():
            diff.messages.append(
                f"no golden recorded at {path} — run `python -m repro golden record`"
            )
        else:
            header, body = load_golden(path)
            try:
                diff.messages = _divergence(pin, header, body, *_record(pin))
            except ValueError as exc:
                diff.messages.append(f"producer failed: {exc}")
        diffs.append(diff)
    return diffs


def _select(only: Optional[Sequence[str]]) -> tuple[Pin, ...]:
    if not only:
        return PINS
    wanted = set(only)
    selected = tuple(p for p in PINS if p.name in wanted)
    unknown = wanted - {p.name for p in selected}
    if unknown:
        raise ValueError(
            f"unknown golden pin(s) {sorted(unknown)}; see `python -m repro golden list`"
        )
    return selected
