"""Migration edge cases under faults: crashes and transfer failures mid-flight."""

from __future__ import annotations

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.models.registry import get_model
from repro.workloads.datasets import SHAREGPT
from repro.workloads.trace import generate_trace

from tests.core.test_windserve import make_system


def pressured_system(**kwargs):
    return make_system(decode_tp=1, kv_override=4096, **kwargs)


def load_pressured(system, rate=10.0, n=150, seed=5):
    model = get_model("opt-13b")
    trace = generate_trace(SHAREGPT, rate=rate, num_requests=n, seed=seed, model=model)
    return system.load_workload(trace)


def crash_when(system, instance, condition, downtime=0.8):
    """Fail ``instance`` the first time ``condition()`` holds, then recover."""
    triggered = [False]

    def watch():
        if not triggered[0] and condition() and not instance.failed:
            triggered[0] = True
            lost = instance.fail()
            system.register_crash(instance, lost)
            system.sim.schedule(downtime, instance.recover)
            return
        if not triggered[0] and system.sim.pending_events:
            system.sim.schedule(0.005, watch)

    system.sim.schedule(0.0, watch)
    return triggered


def assert_clean_finish(system, n):
    metrics = system.metrics
    done = {r.request_id for r in metrics.completed}
    shed = {r.request_id for r in metrics.shed}
    assert len(done) + len(shed) == n and not done & shed
    assert system.prefill_instance.kv.used_gpu_blocks == 0
    assert system.decode_instance.kv.used_gpu_blocks == 0
    for r in metrics.completed:
        assert r.output_generated == r.output_tokens


class TestSourceDiesMidMigration:
    def test_bulk_leg_source_crash(self):
        """The decode (source) instance dies while a bulk leg is in flight:
        the migration aborts and the orphaned request is re-queued."""
        system = pressured_system()
        load_pressured(system)
        decode = system.decode_instance
        triggered = crash_when(
            system,
            decode,
            lambda: any(s.leg == 1 for s in system.migrations.active.values()),
        )
        system.sim.run_until_idle()
        assert triggered[0], "no bulk-leg migration was in flight to crash into"
        assert system.metrics.counters.get("reschedule_aborted", 0) >= 1
        assert system.metrics.counters.get("crash_requeued", 0) >= 1
        assert not system.migrations.active
        assert_clean_finish(system, 150)


class TestDestinationDiesMidMigration:
    def test_prefill_destination_crash(self):
        """The prefill (destination) instance dies mid-migration: paused
        leg-2 requests resume decoding on the source instead."""
        system = pressured_system()
        load_pressured(system)
        prefill = system.prefill_instance
        triggered = crash_when(
            system,
            prefill,
            lambda: bool(system.migrations.active),
        )
        system.sim.run_until_idle()
        assert triggered[0], "no migration was in flight to crash into"
        assert system.metrics.counters.get("reschedule_aborted", 0) >= 1
        assert not system.migrations.active
        assert_clean_finish(system, 150)


class TestTransferRetry:
    def test_migration_legs_retry_through_outage(self):
        """A link outage covering the migration window forces transfer
        retries (or permanent failures + abort); every request still lands."""
        system = pressured_system()
        plan = FaultPlan(
            name="custom",
            events=(FaultEvent(FaultKind.LINK_OUTAGE, "pd", time=1.0, duration=1.0),),
            seed=0,
        )
        FaultInjector(system, plan).arm()
        load_pressured(system)
        system.sim.run_until_idle()
        counters = system.metrics.counters
        assert (
            counters.get("transfer_retries", 0)
            + counters.get("transfer_stalled", 0)
            + counters.get("transfer_failed", 0)
        ) >= 1
        assert not system.migrations.active
        assert_clean_finish(system, 150)

    def test_permanent_residual_failure_aborts_migration(self):
        """An outage longer than the whole backoff budget makes in-flight
        migration transfers fail permanently; the abort path resumes the
        request on its source and nothing leaks."""
        system = pressured_system()
        retry = system.transfers.retry
        budget = sum(retry.backoff_s * retry.multiplier**i for i in range(retry.max_retries))
        plan = FaultPlan(
            name="custom",
            events=(
                FaultEvent(FaultKind.LINK_OUTAGE, "pd", time=1.0, duration=budget + 1.0),
            ),
            seed=0,
        )
        FaultInjector(system, plan).arm()
        load_pressured(system)
        system.sim.run_until_idle()
        assert not system.migrations.active
        assert_clean_finish(system, 150)
