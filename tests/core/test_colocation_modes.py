"""Tests for colocation modes (SBD vs hybrid vs static partition, §3.4)."""

from __future__ import annotations

import pytest

from repro.core.config import WindServeConfig
from repro.models.registry import get_model
from repro.workloads.datasets import SHAREGPT
from repro.workloads.trace import generate_trace

from tests.core.test_windserve import make_system, request


class TestConfigValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            WindServeConfig(colocation_mode="mig")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            WindServeConfig(reschedule_policy="random")

    def test_partition_fraction_bounds(self):
        with pytest.raises(ValueError):
            WindServeConfig(static_partition_fraction=0.99)


class TestStaticPartition:
    def test_decode_always_slowed_by_partition(self):
        """§3.4: static partitions waste the reserved share even when only
        decode jobs run — SBD does not."""
        sbd = make_system()
        part = make_system(
            ws_config=WindServeConfig(
                colocation_mode="static-partition", static_partition_fraction=0.3
            )
        )
        # Identical decode-only load, no dispatch.
        for system in (sbd, part):
            r = request(1, prompt=200, output=60)
            system.decode_instance.kv.allocate(1, r.context_tokens)
            r.prefilled_tokens = 200
            r.output_generated = 1
            r.first_token_time = 0.0
            system.decode_instance.enqueue(r)
            system.sim.run_until_idle()
        sbd_req = sbd.metrics.completed[0]
        part_req = part.metrics.completed[0]
        assert part_req.tpot > 1.3 * sbd_req.tpot

    def test_partition_batches_labeled(self):
        system = make_system(
            ws_config=WindServeConfig(colocation_mode="static-partition")
        )
        r = request(1, prompt=200, output=30)
        system.decode_instance.kv.allocate(1, r.context_tokens)
        r.prefilled_tokens = 200
        r.output_generated = 1
        system.decode_instance.enqueue(r)
        lane = system.decode_instance.lanes[0]
        assert lane.busy  # batch started on enqueue
        # Verify the slowdown directly through batch formation.
        lane.busy = False
        batch = system.decode_instance._form_batch(lane)
        assert batch.kind == "partitioned-decode"

    def test_partitioned_assist_prefill_slower_than_sbd(self):
        durations = {}
        for mode in ("sbd", "static-partition"):
            system = make_system(ws_config=WindServeConfig(colocation_mode=mode))
            r = request(1, prompt=1500, output=2)
            system.decode_instance.kv.allocate(1, r.prompt_tokens + 1)
            system.decode_instance.assist.submit(r)
            assert system.decode_instance.assist.active is not None
            durations[mode] = system.decode_instance.assist.active.duration
        assert durations["static-partition"] > durations["sbd"]

    def test_sbd_beats_static_partition_end_to_end(self):
        """The §3.4 argument, measured: same overload, SBD wins TPOT."""
        model = get_model("opt-13b")
        results = {}
        for mode in ("sbd", "static-partition"):
            system = make_system(ws_config=WindServeConfig(colocation_mode=mode))
            trace = generate_trace(SHAREGPT, rate=16.0, num_requests=200, seed=3, model=model)
            results[mode] = system.run_to_completion(trace)
        assert (
            results["sbd"].tpot_stats().p90
            < results["static-partition"].tpot_stats().p90
        )


class TestReschedulePolicy:
    def test_shortest_context_policy_migrates_short_requests(self):
        system = make_system(
            decode_tp=1,
            kv_override=4096,
            ws_config=WindServeConfig(reschedule_policy="shortest-context"),
        )
        decode = system.decode_instance
        contexts = [100, 700, 300, 500, 200]
        for i, ctx in enumerate(contexts):
            r = request(i, prompt=ctx, output=50)
            r.prefilled_tokens = ctx
            r.output_generated = 1
            decode.kv.allocate(i, r.context_tokens)
            decode.start_decoding(r)
        free = decode.kv.free_gpu_tokens
        if free > 0:
            decode.kv.allocate(9999, free)
        system.maybe_reschedule()
        migrating = set(system.migrations.active)
        assert migrating
        chosen = sorted(contexts)[: len(migrating)]
        assert {contexts[i] for i in migrating if i < len(contexts)} == set(chosen)

    def test_longest_policy_moves_more_kv_per_migration(self):
        """WindServe's rationale vs Llumnix, on a controlled state: the
        longest-first bulk legs move strictly more bytes per migration."""
        per_migration = {}
        for policy in ("longest-context", "shortest-context"):
            system = make_system(
                decode_tp=1,
                kv_override=4096,
                ws_config=WindServeConfig(reschedule_policy=policy),
            )
            decode = system.decode_instance
            for i, ctx in enumerate([150, 900, 350, 600, 250]):
                r = request(i, prompt=ctx, output=50)
                r.prefilled_tokens = ctx
                r.output_generated = 1
                decode.kv.allocate(i, r.context_tokens)
                decode.start_decoding(r)
            free = decode.kv.free_gpu_tokens
            if free > 0:
                decode.kv.allocate(9999, free)
            system.maybe_reschedule()
            states = list(system.migrations.active.values())
            assert states
            per_migration[policy] = sum(s.bulk_bytes for s in states) / len(states)
        assert per_migration["longest-context"] > per_migration["shortest-context"]
