"""Golden-trace store: record and diff deterministic regression traces.

Every figure the reproduction claims rests on the simulator producing
identical event streams for identical seeds.  This module pins that down:
a small matrix of {scheduler x workload x seed} scenarios is run with
tracing on, and the tag-filtered event stream + final per-request metrics
+ RNG registry are captured as compact JSONL *goldens* under
``tests/golden/``.  ``python -m repro golden check`` re-runs the matrix
and names the first diverging event (time, component, tag, payload delta)
when a scheduler change perturbs behaviour.

Refreshing the store after an *intentional* change goes through
``python -m repro golden rerecord --reason "..."``: each golden keeps a
**provenance** header chaining every fingerprint it ever replaced (reason,
PR tag, prior fingerprint, per-component mismatch summary), and the
rerecord emits a migration report of per-scenario metric deltas (mean
TTFT/TPOT, makespan, shed/requeue counts) so reviewers audit *what
changed and by how much* instead of diffing SHA-256 hashes.  ``python -m
repro golden record`` stays the verb for brand-new scenarios; ``python -m
repro golden validate`` checks every stored header's format version and
provenance chain (see ``docs/determinism.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.harness.cell import Cell, CellRun
from repro.sim.fingerprint import RunFingerprint, canonical_json

#: Default location of the golden store, relative to the repo root.
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
        "reconfigure",
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
    }
)

# Version 2 added the provenance header (PR 8); version-1 files are only
# readable through the rerecord migration path (``load_golden(allow_old=True)``).
GOLDEN_FORMAT_VERSION = 2

#: Schema version of the ``provenance`` header block.
PROVENANCE_FORMAT_VERSION = 1

#: Reason stamped by ``golden record`` when none is given: a fresh
#: recording of a new scenario, with no prior fingerprint to chain.
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
)


# -- store I/O ----------------------------------------------------------------


def golden_path(directory: Path, name: str) -> Path:
    return Path(directory) / f"{name}.jsonl"


def initial_provenance(reason: Optional[str] = None, tag: Optional[str] = None) -> dict:
    """Provenance block for a first recording: no prior fingerprint."""
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


def save_golden(
    run: CellRun, directory: Path, provenance: Optional[dict] = None
) -> Path:
    """Write one scenario's golden JSONL (header line, then one event/line)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = {
        "golden": GOLDEN_FORMAT_VERSION,
        "scenario": run.cell.meta(),
        "fingerprint": run.fingerprint.as_dict(),
        "combined": run.fingerprint.value,
        "events": len(run.event_rows),
        "rng": list(run.rng_registry),
        "requests": run.request_rows,
        "provenance": provenance if provenance is not None else initial_provenance(),
    }
    path = golden_path(directory, run.cell.name)
    with path.open("w") as fh:
        fh.write(canonical_json(header) + "\n")
        for row in run.event_rows:
            fh.write(canonical_json(row) + "\n")
    return path


def load_golden(path: Path, *, allow_old: bool = False) -> tuple[dict, list[dict]]:
    """Read a golden file back as (header, event rows).

    ``allow_old=True`` accepts headers from earlier format versions — the
    rerecord migration path, which needs to read the store it is about to
    replace.  Checks always demand the current version.
    """
    with Path(path).open() as fh:
        lines = [line for line in fh.read().splitlines() if line]
    if not lines:
        raise ValueError(f"golden file {path} is empty")
    header = json.loads(lines[0])
    version = header.get("golden")
    acceptable = (
        isinstance(version, int) and 1 <= version <= GOLDEN_FORMAT_VERSION
        if allow_old
        else version == GOLDEN_FORMAT_VERSION
    )
    if not acceptable:
        raise ValueError(
            f"golden file {path} has format version {version!r}; "
            f"expected {GOLDEN_FORMAT_VERSION} — re-record with "
            f"`python -m repro golden rerecord --reason ...`"
        )
    return header, [json.loads(line) for line in lines[1:]]


def record_goldens(
    directory: Path = DEFAULT_GOLDEN_DIR,
    only: Optional[Sequence[str]] = None,
    reason: Optional[str] = None,
    tag: Optional[str] = None,
) -> list[Path]:
    """Run the matrix (or a named subset) and write/refresh golden files.

    This is the verb for *new* scenarios: it stamps an initial provenance
    block with no prior fingerprint.  Refreshing an existing golden after
    an intentional behaviour change should go through
    :func:`rerecord_goldens`, which preserves the fingerprint chain.
    """
    paths = []
    provenance = initial_provenance(reason, tag)
    for scenario in _select(only):
        run = scenario.run(trace_tags=GOLDEN_TAGS)
        paths.append(save_golden(run, directory, dict(provenance)))
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
    """Reviewer-facing summary metrics of one recorded scenario.

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


@dataclass
class RerecordOutcome:
    """One scenario's before/after accounting from a provenance rerecord."""

    scenario: str
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
    """Re-run each scenario and replace its golden, chaining provenance.

    For every selected scenario the existing golden *must* be present: its
    fingerprint becomes the new header's ``provenance.prior``, is appended
    to ``provenance.chain`` (oldest first), and the per-component
    :meth:`RunFingerprint.explain_mismatch` summary is stored as
    ``provenance.changed``.  Returns one :class:`RerecordOutcome` per
    scenario for the migration report.
    """
    if not reason or not reason.strip():
        raise ValueError("rerecord requires a non-empty --reason")
    directory = Path(directory)
    outcomes = []
    for scenario in _select(only):
        path = golden_path(directory, scenario.name)
        if not path.exists():
            raise ValueError(
                f"no golden recorded at {path} — new scenarios are recorded "
                f"with `python -m repro golden record`, not rerecord"
            )
        old_header, old_events = load_golden(path, allow_old=True)
        run = scenario.run(trace_tags=GOLDEN_TAGS)
        prior_fp = _fingerprint_from_header(old_header["fingerprint"])
        changed = prior_fp.explain_mismatch(run.fingerprint)
        old_provenance = old_header.get("provenance") or {}
        provenance = {
            "format": PROVENANCE_FORMAT_VERSION,
            "reason": reason,
            "prior": {
                "combined": old_header["combined"],
                "fingerprint": old_header["fingerprint"],
            },
            "chain": list(old_provenance.get("chain", [])) + [old_header["combined"]],
            "changed": changed,
        }
        if tag:
            provenance["tag"] = tag
        save_golden(run, directory, provenance)
        outcomes.append(
            RerecordOutcome(
                scenario=scenario.name,
                path=path,
                prior_combined=old_header["combined"],
                new_combined=run.fingerprint.value,
                changed=changed,
                old_metrics=scenario_metrics(
                    old_header.get("requests", []), old_events
                ),
                new_metrics=scenario_metrics(run.request_rows, run.event_rows),
            )
        )
    return outcomes


_REPORT_COLUMNS = (
    # (metric key, column label, format)
    ("mean_ttft", "mean TTFT (s)", "{:+.6f}"),
    ("mean_tpot", "mean TPOT (s)", "{:+.6f}"),
    ("makespan", "makespan (s)", "{:+.6f}"),
    ("completed", "completed", "{:+d}"),
    ("shed", "shed", "{:+d}"),
    ("requeued", "requeued", "{:+d}"),
)


def render_migration_report(outcomes: Sequence[RerecordOutcome]) -> str:
    """Human-readable per-scenario metric deltas from a rerecord.

    This is the artefact a reviewer reads instead of 19 hash diffs: what
    each scenario's headline metrics did under the intentional change.
    """
    lines = ["golden migration report", "======================="]
    changed_count = sum(not o.identical for o in outcomes)
    lines.append(
        f"{len(outcomes)} scenario(s) re-recorded; "
        f"{changed_count} changed, {len(outcomes) - changed_count} byte-identical"
    )
    for o in outcomes:
        lines.append("")
        status = "unchanged" if o.identical else "changed: " + ", ".join(o.changed)
        lines.append(f"{o.scenario}  [{status}]")
        lines.append(f"    fingerprint {o.prior_combined[:12]} -> {o.new_combined[:12]}")
        if o.identical:
            continue
        for key, label, fmt in _REPORT_COLUMNS:
            old, new = o.old_metrics[key], o.new_metrics[key]
            delta = new - old
            if not delta:
                continue
            rel = f" ({delta / old:+.2%})" if isinstance(old, float) and old else ""
            lines.append(
                f"    {label:<14} {old:.6f} -> {new:.6f}  {fmt.format(delta)}{rel}"
                if isinstance(old, float)
                else f"    {label:<14} {old} -> {new}  {fmt.format(delta)}"
            )
    return "\n".join(lines)


# -- store validation ---------------------------------------------------------

_HEX64 = 64


def _is_combined_digest(value: object) -> bool:
    return (
        isinstance(value, str)
        and len(value) == _HEX64
        and all(c in "0123456789abcdef" for c in value)
    )


def validate_provenance(provenance: object) -> list[str]:
    """Problems with one header's provenance block (empty list = valid)."""
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
        if not isinstance(prior.get("fingerprint"), dict):
            problems.append("provenance prior.fingerprint missing")
        elif chain is not None:
            if not chain or chain[-1] != prior.get("combined"):
                problems.append(
                    "provenance chain does not end at prior.combined — the "
                    "prior-fingerprint chain is broken"
                )
    else:
        problems.append("provenance prior must be null or an object")
    return problems


def validate_golden_store(
    directory: Path = DEFAULT_GOLDEN_DIR, only: Optional[Sequence[str]] = None
) -> list[str]:
    """Validate every stored golden's format version and provenance header.

    Cheap (no simulation): parses each file, checks the format version
    matches, the provenance block is well-formed, its chain is intact, and
    the header's event count matches the stored stream.  Returns a flat
    list of ``"<scenario>: <problem>"`` strings; empty means the store is
    auditable.
    """
    problems = []
    for scenario in _select(only):
        path = golden_path(Path(directory), scenario.name)
        if not path.exists():
            problems.append(f"{scenario.name}: no golden recorded at {path}")
            continue
        try:
            header, events = load_golden(path)
        except ValueError as exc:
            problems.append(f"{scenario.name}: {exc}")
            continue
        if header.get("events") != len(events):
            problems.append(
                f"{scenario.name}: header says {header.get('events')} events, "
                f"file holds {len(events)}"
            )
        if not _is_combined_digest(header.get("combined")):
            problems.append(f"{scenario.name}: combined digest malformed")
        problems.extend(
            f"{scenario.name}: {p}" for p in validate_provenance(header.get("provenance"))
        )
    return problems


# -- diffing ------------------------------------------------------------------


@dataclass
class GoldenDiff:
    """Outcome of checking one scenario against its recorded golden."""

    scenario: str
    messages: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.messages

    def report(self) -> str:
        status = "ok" if self.passed else "DIVERGED"
        lines = [f"[{status}] {self.scenario}"]
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


def diff_against_golden(path: Path, run: CellRun) -> GoldenDiff:
    """Compare a fresh run against its stored golden file."""
    diff = GoldenDiff(scenario=run.cell.name)
    header, expected_events = load_golden(path)
    if header["combined"] == run.fingerprint.value:
        return diff

    recorded = _fingerprint_from_header(header["fingerprint"])
    components = recorded.explain_mismatch(run.fingerprint)
    diff.messages.append(
        "fingerprint mismatch in: " + (", ".join(components) or "combined digest")
    )
    event_diff = first_event_divergence(expected_events, run.event_rows)
    if event_diff is not None:
        diff.messages.append(event_diff)
    request_diff = _first_request_divergence(header.get("requests", []), run.request_rows)
    if request_diff is not None:
        diff.messages.append(request_diff)
    if list(header.get("rng", [])) != list(run.rng_registry):
        recorded_rng, actual_rng = set(header.get("rng", [])), set(run.rng_registry)
        added = sorted(actual_rng - recorded_rng)
        removed = sorted(recorded_rng - actual_rng)
        parts = []
        if added:
            parts.append(f"new streams {added}")
        if removed:
            parts.append(f"vanished streams {removed}")
        diff.messages.append(
            "RNG stream registry changed: " + ("; ".join(parts) or "order changed")
        )
    return diff


def check_goldens(
    directory: Path = DEFAULT_GOLDEN_DIR, only: Optional[Sequence[str]] = None
) -> list[GoldenDiff]:
    """Re-run the matrix and diff each scenario against its golden file.

    Returns one :class:`GoldenDiff` per scenario; all ``passed`` means the
    store is clean.  A missing golden file is reported as a failure (run
    ``python -m repro golden record`` first).
    """
    diffs = []
    for scenario in _select(only):
        path = golden_path(Path(directory), scenario.name)
        if not path.exists():
            diffs.append(
                GoldenDiff(
                    scenario=scenario.name,
                    messages=[
                        f"no golden recorded at {path} — run `python -m repro golden record`"
                    ],
                )
            )
            continue
        diffs.append(diff_against_golden(path, scenario.run(trace_tags=GOLDEN_TAGS)))
    return diffs


def _select(only: Optional[Sequence[str]]) -> tuple[Cell, ...]:
    if not only:
        return GOLDEN_MATRIX
    wanted = set(only)
    selected = tuple(s for s in GOLDEN_MATRIX if s.name in wanted)
    unknown = wanted - {s.name for s in selected}
    if unknown:
        known = ", ".join(s.name for s in GOLDEN_MATRIX)
        raise ValueError(f"unknown golden scenario(s) {sorted(unknown)}; known: {known}")
    return selected
