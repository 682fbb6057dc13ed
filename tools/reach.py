"""Reach recorder: the ``src/repro`` functions the behavioural contract runs.

The contract is what makes deleting code safe: the pins (``golden check``),
the paper's claims table (``repro claims``), the ``models`` and ``datasets``
listings, every ``make examples`` command and the four benchmark workloads.
This script runs all of them in one process under ``sys.setprofile`` and
records every call into ``src/repro``.  A function counts as reached when a
call's code object starts on its ``def`` line or on its first decorator
line.  Only module-level functions and methods (of classes at any depth)
are counted; functions nested in functions are not.

It prints every counted function that nothing reached, and exits 1 when
one of them is missing from ``KEPT`` or when a contract run itself fails.
A ``KEPT`` entry that was reached after all is reported, not failed.  It
takes about 2 minutes on a 2-vCPU host.  Run from anywhere::

    python tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import shlex
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
BENCH = ROOT / "bench"

#: ``repro`` CLI invocations that are part of the contract.
CLI_RUNS = (("golden", "check"), ("claims",), ("models",), ("datasets",))
#: Requests per benchmark workload: enough to reach every code path the
#: full-size run takes.
BENCH_REQUESTS = 300

_REFERENCE = "reference cost spec that test_roofline_exact checks LatencyModel against"
_PIN_STORE = "pin-store machinery: record, rerecord, validate or the diff report on failure"
_BENCH_WRAPS = "bench/layers.py wraps it by name (ROADMAP item 3)"
_VALIDATION = "perf/validation.py: ROADMAP item 8 gives it a caller"
_REPR = "debug __repr__"
_WFQ_DRIVER = "the WFQ property tests drive FairShareClock through this queue"
_PIN_OR_DELETE = "only unit tests reach it; pin it, or delete it with the tests that check only it"

#: Functions no contract run reaches, kept on purpose, keyed
#: ``"module:qualname"``.  Every reason says why the code stays without a
#: pin; ``tests/test_reach_allowlist.py`` fails on an entry naming no
#: function under ``src/``.
KEPT: dict[str, str] = {
    # -- Safety: fault and error handlers that no fault plan triggers
    "repro.core.rescheduling:MigrationManager.abort_transfer_failure":
        "fault handler: aborts a migration whose KV transfer exhausted its retries",
    "repro.core.windserve:WindServeSystem._reset_for_requeue":
        "fault handler: releases a torn async hand-off when a crash requeues its request",
    "repro.core.windserve:WindServeSystem.on_transfer_failed":
        "fault handler: a KV transfer exhausted its retries",
    "repro.faults.links:LinkFaultModel.up_after":
        "fault handler: retry backoff past a link outage",
    "repro.kvcache.prefix:PrefixCacheIndex.evict_unreferenced":
        "memory-pressure path: frees cache blocks when live traffic needs the room",
    "repro.kvcache.prefix:PrefixCacheIndex.reset":
        "fault handler: forgets the cache after Instance.fail freed its blocks",
    "repro.kvcache.transfer:KVTransferEngine._fail_job":
        "fault handler: gives up a transfer after its last retry",
    "repro.policies.routing:PrefixAffinityRouting.observe_failure":
        "fault handler: forgets a crashed member's warm prefixes",
    "repro.serving.disaggregated:DisaggregatedSystem.on_transfer_failed":
        "fault handler: a KV transfer exhausted its retries",
    "repro.serving.system:ServingSystem.on_transfer_failed":
        "fault handler hook: a KV transfer exhausted its retries",
    "repro.sim.fingerprint:_encode_other":
        "canonical_json's input fallback: numpy scalars, enums and subclasses of plain types",
    "repro.sim.fingerprint:_path":
        "canonical_json's error path: names the key with no canonical form",
    # -- Reference specs that tests compare against
    "repro.models.costs:hybrid_flops_attn_decode": _REFERENCE,
    "repro.models.costs:hybrid_flops_attn_prefill": _REFERENCE,
    "repro.models.costs:hybrid_flops_linear": _REFERENCE,
    "repro.models.costs:hybrid_io_bytes_attn_decode": _REFERENCE,
    "repro.models.costs:hybrid_io_bytes_attn_prefill": _REFERENCE,
    "repro.models.costs:hybrid_io_bytes_linear": _REFERENCE,
    "repro.models.costs:layer_flops_decode": _REFERENCE,
    "repro.models.costs:layer_flops_prefill": _REFERENCE,
    "repro.models.costs:layer_flops_prefill_extend": _REFERENCE,
    "repro.models.costs:layer_io_bytes_prefill_extend": _REFERENCE,
    "repro.models.costs:model_flops_decode": _REFERENCE,
    "repro.models.costs:model_flops_hybrid": _REFERENCE,
    "repro.models.costs:model_flops_prefill": _REFERENCE,
    "repro.models.costs:model_flops_prefill_extend": _REFERENCE,
    "repro.models.costs:model_io_bytes_decode": _REFERENCE,
    "repro.models.costs:model_io_bytes_hybrid": _REFERENCE,
    "repro.models.costs:model_io_bytes_prefill": _REFERENCE,
    "repro.models.costs:model_io_bytes_prefill_extend": _REFERENCE,
    "repro.models.parallelism:ParallelConfig.pp_activation_time": _REFERENCE,
    "repro.models.parallelism:ParallelConfig.shard_flops": _REFERENCE,
    "repro.models.parallelism:ParallelConfig.tp_allreduce_time": _REFERENCE,
    "repro.perf.roofline:gemm_saturation":
        "reference spec that the roofline tests check LatencyModel against",
    "repro.sim.fingerprint:raw_row_json":
        "reference bytes that row_renderer must match (fingerprint tests)",
    "repro.sim.fingerprint:record_row":
        "reference path that tests compare TraceLog.fingerprint against",
    # -- Pin-store machinery (record, rerecord, validate, diff report on failure)
    "repro.harness.golden:RerecordOutcome.identical": _PIN_STORE,
    "repro.harness.golden:ValuePin.digest": _PIN_STORE,
    "repro.harness.golden:_changed": _PIN_STORE,
    "repro.harness.golden:_changed_keys": _PIN_STORE,
    "repro.harness.golden:_delta": _PIN_STORE,
    "repro.harness.golden:_delta_lines": _PIN_STORE,
    "repro.harness.golden:_fingerprint_from_header": _PIN_STORE,
    "repro.harness.golden:_first_request_divergence": _PIN_STORE,
    "repro.harness.golden:_flatten": _PIN_STORE,
    "repro.harness.golden:_is_combined_digest": _PIN_STORE,
    "repro.harness.golden:_metrics": _PIN_STORE,
    "repro.harness.golden:_payload_delta": _PIN_STORE,
    "repro.harness.golden:_write": _PIN_STORE,
    "repro.harness.golden:diff_against_golden": _PIN_STORE,
    "repro.harness.golden:first_event_divergence": _PIN_STORE,
    "repro.harness.golden:initial_provenance": _PIN_STORE,
    "repro.harness.golden:record_goldens": _PIN_STORE,
    "repro.harness.golden:render_migration_report": _PIN_STORE,
    "repro.harness.golden:rerecord_goldens": _PIN_STORE,
    "repro.harness.golden:save_golden": _PIN_STORE,
    "repro.harness.golden:scenario_metrics": _PIN_STORE,
    "repro.harness.golden:validate_golden_store": _PIN_STORE,
    "repro.harness.golden:validate_provenance": _PIN_STORE,
    "repro.sim.fingerprint:RunFingerprint.explain_mismatch": _PIN_STORE,
    # -- Names bench/layers.py wraps by name, and the code behind them (ROADMAP item 3)
    "repro.kvcache.blocks:KVBlockManager.adopt": _BENCH_WRAPS,
    "repro.serving.batching:Batch.decode_batch_size": _BENCH_WRAPS,
    "repro.sim.engine:Event.cancel": _BENCH_WRAPS,
    "repro.sim.engine:Event.pending": _BENCH_WRAPS,
    "repro.sim.engine:Simulator._compact":
        "behind Event.cancel, which bench/layers.py wraps by name (ROADMAP item 3)",
    "repro.sim.engine:Simulator._note_cancelled":
        "behind Event.cancel, which bench/layers.py wraps by name (ROADMAP item 3)",
    # -- perf/validation.py, which ROADMAP item 8 gives a caller
    "repro.core.profiler:Profiler.predict_decode":
        "the decode predictions perf/validation.py checks (ROADMAP item 8)",
    "repro.perf.validation:ValidationPoint.relative_error": _VALIDATION,
    "repro.perf.validation:ValidationReport._errors": _VALIDATION,
    "repro.perf.validation:ValidationReport.mape": _VALIDATION,
    "repro.perf.validation:ValidationReport.rows": _VALIDATION,
    "repro.perf.validation:ValidationReport.summary": _VALIDATION,
    "repro.perf.validation:ValidationReport.worst": _VALIDATION,
    "repro.perf.validation:validate_profiler": _VALIDATION,
    # -- Debug __repr__
    "repro.hardware.cluster:ClusterTopology.__repr__": _REPR,
    "repro.hardware.interconnect:Link.__repr__": _REPR,
    "repro.hardware.memory:MemoryPool.__repr__": _REPR,
    "repro.hardware.topology:NodeTopology.__repr__": _REPR,
    "repro.kvcache.blocks:KVAllocation.__repr__": _REPR,
    "repro.kvcache.prefix:PrefixEntry.__repr__": _REPR,
    "repro.serving.batching:Batch.__repr__": _REPR,
    "repro.serving.instance:Instance.__repr__": _REPR,
    "repro.serving.instance:Lane.__repr__": _REPR,
    "repro.serving.request:Request.__repr__": _REPR,
    "repro.sim.engine:Event.__repr__": _REPR,
    # -- Measurements and drivers that remaining tests inspect other behaviour through
    "repro.hardware.memory:MemoryPool.capacity":
        "the memory-pool property test checks the used/free ledger against it",
    "repro.harness.cell:CellRun.passed":
        "cell, golden and policy tests check a run's invariants with it",
    "repro.kvcache.blocks:KVBlockManager.free_cpu_blocks":
        "displace_running reads CPU room through it; KV tests too",
    "repro.kvcache.blocks:KVBlockManager.free_gpu_tokens":
        "scheduler tests read GPU headroom through it",
    "repro.kvcache.blocks:KVBlockManager.tokens_of":
        "KV tests read an allocation's tokens through it",
    "repro.kvcache.transfer:TransferJob.duration": "transfer tests read a job's wire time with it",
    "repro.policies.base:PolicyRegistry.__contains__":
        "the registry test checks membership with it",
    "repro.policies.fairshare:FairShareQueue.__init__": _WFQ_DRIVER,
    "repro.policies.fairshare:FairShareQueue.__len__": _WFQ_DRIVER,
    "repro.policies.fairshare:FairShareQueue.pop": _WFQ_DRIVER,
    "repro.policies.fairshare:FairShareQueue.push": _WFQ_DRIVER,
    "repro.serving.metrics:MetricsCollector.tier_attainment":
        "the tier-aware routing acceptance test measures with it",
    "repro.serving.system:ServingSystem.run":
        "serving-system tests run a system part way with it",
    "repro.sim.trace:TraceLog.count":
        "the TraceLog model test checks it against a reference model",
    "repro.sim.trace:TraceLog.records":
        "trace and fingerprint tests read the log's rows through it",
    "repro.workloads.arrivals:TierMix.spec_string":
        "the parse round-trip tests check TierMix.parse with it",
    "repro.workloads.tenants:TenantMix.spec_string":
        "the parse round-trip tests check TenantMix.parse with it",
    "repro.workloads.tenants:TenantMix.tenants":
        "the parse round-trip test checks TenantMix.parse with it",
    # -- Interface declarations that every subclass overrides
    "repro.policies.base:AdmissionPolicy.admit":
        "interface declaration: every admission policy overrides it",
    "repro.policies.base:PreemptionPolicy.pick_swap_victim":
        "interface declaration: every preemption policy overrides it",
    "repro.policies.base:RoutingPolicy.select":
        "interface declaration: every routing policy overrides it",
    "repro.serving.instance:Instance._form_batch":
        "interface declaration: every instance type overrides it",
    "repro.serving.instance:Instance._on_batch_complete":
        "interface declaration: every instance type overrides it",
    "repro.serving.instance:Instance._supports_recompute":
        "interface default: only vLLM instances recompute, and they override it",
    "repro.serving.system:ServingSystem.submit":
        "interface declaration: every serving system overrides it",
    # -- Features waiting for a pin
    "repro.faults.targets:FleetScope.instances":
        "feature waiting for a pin: a fleet-member straggler, which no fleet fault plan schedules",
    "repro.hardware.cluster:ClusterTopology.nvlink_peer":
        "feature waiting for a pin: NVLink pairing when placing on a multi-node cluster",
    "repro.policies.admission:PreemptiveAdmission.displace_running":
        "feature waiting for a pin: no claim or pin displaces a running request",
    "repro.policies.base:PreemptionPolicy.pick_displacement_victim":
        "feature waiting for a pin: behind displace_running",
    # -- Pin or delete: only tests that check nothing else reach these
    "repro.core.config:FleetShape.num_gpus": _PIN_OR_DELETE,
    "repro.core.config:MemberShape.num_gpus": _PIN_OR_DELETE,
    "repro.faults.plan:FaultPlan.describe": _PIN_OR_DELETE,
    "repro.hardware.cluster:ClusterTopology.all_links": _PIN_OR_DELETE,
    "repro.hardware.cluster:ClusterTopology.numa_of": _PIN_OR_DELETE,
    "repro.hardware.interconnect:Link.reserve": _PIN_OR_DELETE,
    "repro.hardware.interconnect:Link.transfer_duration": _PIN_OR_DELETE,
    "repro.hardware.interconnect:Link.utilization": _PIN_OR_DELETE,
    "repro.hardware.interconnect:TransferReservation.duration": _PIN_OR_DELETE,
    "repro.hardware.memory:MemoryPool.utilization": _PIN_OR_DELETE,
    "repro.hardware.topology:NodeTopology.all_links": _PIN_OR_DELETE,
    "repro.harness.capacity:CapacityResult.row": _PIN_OR_DELETE,
    "repro.harness.slo:paper_slo": _PIN_OR_DELETE,
    "repro.kvcache.blocks:KVBlockManager.bytes_of": _PIN_OR_DELETE,
    "repro.perf.roofline:LatencyModel.pipeline_slots": _PIN_OR_DELETE,
    "repro.serving.metrics:percentile": _PIN_OR_DELETE,
    "repro.serving.request:Request.is_recomputing": _PIN_OR_DELETE,
    "repro.serving.request:Request.priority": _PIN_OR_DELETE,
    "repro.sim.engine:Event.__lt__": _PIN_OR_DELETE,
    "repro.sim.random:RandomStreams.seed": _PIN_OR_DELETE,
    "repro.sim.trace:TraceLog.clear": _PIN_OR_DELETE,
    "repro.workloads.trace:Trace.duration": _PIN_OR_DELETE,
}


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def counted(tree: ast.Module):
    """``(qualname, node)`` for every module-level function and method."""
    stack = [("", node) for node in tree.body]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            stack.extend((f"{prefix}{node.name}.", child) for child in node.body)


def functions() -> dict[tuple[str, int], tuple[str, int, int]]:
    """Map ``(file, start line)`` to ``(key, def line, length in lines)``.

    Each function is entered under its ``def`` line and, when decorated,
    under its first decorator line too (a decorated function's code object
    starts there).
    """
    table: dict[tuple[str, int], tuple[str, int, int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = module_name(path)
        for qualname, node in counted(tree):
            entry = (f"{module}:{qualname}", node.lineno, node.end_lineno - node.lineno + 1)
            starts = {node.lineno}
            if node.decorator_list:
                starts.add(node.decorator_list[0].lineno)
            for start in starts:
                table[(str(path), start)] = entry
    return table


class Recorder:
    """Collects the code object of every Python call while active."""

    def __init__(self) -> None:
        self.codes: set = set()

    def hook(self, frame, event, arg):
        if event == "call":
            self.codes.add(frame.f_code)

    def __enter__(self) -> "Recorder":
        threading.setprofile(self.hook)
        sys.setprofile(self.hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)


def example_commands() -> list[list[str]]:
    """The ``make examples`` recipe, one argv per line."""
    lines = (ROOT / "Makefile").read_text().splitlines()
    start = lines.index("examples:") + 1
    commands = []
    for line in lines[start:]:
        if not line.startswith("\t"):
            break
        argv = shlex.split(line)
        assert argv[0] == "python", f"unexpected examples command: {line.strip()}"
        commands.append(argv[1:])
    return commands


def contract_runs():
    """``(label, thunk)`` for every contract run; a thunk returns an exit code."""
    from repro.cli import main

    for argv in CLI_RUNS:
        yield "repro " + " ".join(argv), lambda argv=argv: main(list(argv))
    for argv in example_commands():
        yield " ".join(argv), lambda argv=argv: run_script(argv)
    sys.path.insert(0, str(BENCH))
    import child
    import workloads

    for name in workloads.WORKLOADS:
        argv = ["--workload", name, "--requests", str(BENCH_REQUESTS), "--mode", "run"]
        yield f"bench {name}", lambda argv=argv: child.main(argv)


def run_script(argv: list[str]) -> int:
    saved = sys.argv
    sys.argv = [str(ROOT / argv[0]), *argv[1:]]
    try:
        runpy.run_path(sys.argv[0], run_name="__main__")
    except SystemExit as exit_:
        return exit_.code or 0
    finally:
        sys.argv = saved
    return 0


def record() -> tuple[set, list[str]]:
    """Run the contract; return the codes it called and the failed runs."""
    failed = []
    with Recorder() as recorder:
        for label, thunk in contract_runs():
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = thunk()
            print(f"  {label}: exit {code}, {time.perf_counter() - start:.1f} s",
                  file=sys.stderr)
            if code:
                failed.append(label)
    return recorder.codes, failed


def main() -> int:
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    codes, failed = record()
    table = functions()
    reached = {table[(code.co_filename, code.co_firstlineno)][0]
               for code in codes if (code.co_filename, code.co_firstlineno) in table}
    entries = sorted(set(table.values()))
    unreached = [e for e in entries if e[0] not in reached]

    print(f"{len(entries) - len(unreached)} of {len(entries)} functions reached; "
          f"{len(unreached)} unreached ({sum(e[2] for e in unreached)} lines), "
          f"{time.perf_counter() - start:.0f} s")
    missing = [e for e in unreached if e[0] not in KEPT]
    stale = sorted(set(KEPT) & reached)
    for key, line, length in unreached:
        tag = "kept" if key in KEPT else "UNREACHED"
        print(f"  {tag:9} {key} (line {line}, {length} lines)")
    for label in failed:
        print(f"contract run failed: {label}")
    for key in stale:
        print(f"note: KEPT entry reached, it can go: {key}")
    if missing:
        print(f"{len(missing)} unreached functions are not in KEPT")
    return 1 if missing or failed else 0


if __name__ == "__main__":
    sys.exit(main())
