"""End-to-end recovery policies: re-queue, backup restore, shedding."""

from __future__ import annotations

from repro.core.config import WindServeConfig
from repro.faults.config import ResilienceConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.models.registry import get_model
from repro.serving.request import Phase
from repro.workloads.datasets import SHAREGPT
from repro.workloads.trace import generate_trace

from tests.core.test_windserve import make_system, request


def workload(n=40, spacing=0.02, prompt=200, output=8):
    return [request(i, prompt=prompt, output=output, arrival=i * spacing) for i in range(n)]


def crash_plan(target, time, duration):
    return FaultPlan(
        name="custom",
        events=(FaultEvent(FaultKind.INSTANCE_CRASH, target, time=time, duration=duration),),
        seed=0,
    )


def assert_conserved(system, n):
    metrics = system.metrics
    done = {r.request_id for r in metrics.completed}
    shed = {r.request_id for r in metrics.shed}
    assert not done & shed
    assert len(done) + len(shed) == n
    assert system.submitted == n


class TestDecodeCrash:
    def test_no_request_silently_dropped(self):
        system = make_system()
        FaultInjector(system, crash_plan("decode", 0.25, 1.0)).arm()
        system.run_to_completion(workload())
        assert_conserved(system, 40)
        assert system.metrics.counters.get("crash_requeued", 0) >= 1
        assert not system.known_failed

    def test_kv_pools_drain_after_recovery(self):
        system = make_system()
        FaultInjector(system, crash_plan("decode", 0.25, 1.0)).arm()
        system.run_to_completion(workload())
        assert system.prefill_instance.kv.used_gpu_blocks == 0
        assert system.decode_instance.kv.used_gpu_blocks == 0

    def test_requeued_requests_report_sane_timings(self):
        system = make_system()
        FaultInjector(system, crash_plan("decode", 0.25, 1.0)).arm()
        system.run_to_completion(workload())
        for r in system.metrics.completed:
            if r.decode_queue_delay is not None:
                assert r.decode_queue_delay >= 0
            assert r.finish_time >= r.arrival_time


class TestPrefillCrash:
    def test_no_request_silently_dropped(self):
        system = make_system()
        FaultInjector(system, crash_plan("prefill", 0.2, 1.0)).arm()
        system.run_to_completion(workload())
        assert_conserved(system, 40)
        assert not system.prefill_instance.failed
        assert not system.known_failed

    def test_backups_cleared_on_prefill_crash(self):
        system = make_system(
            decode_tp=1,
            kv_override=4096,
            ws_config=WindServeConfig(backup_min_prompt_tokens=256),
        )
        model = get_model("opt-13b")
        trace = generate_trace(SHAREGPT, rate=12.0, num_requests=100, seed=3, model=model)
        FaultInjector(system, crash_plan("prefill", 0.8, 1.0)).arm()
        system.run_to_completion(trace)
        assert_conserved(system, 100)
        assert system.metrics.counters.get("instance_crash", 0) == 1


class TestBackupRestore:
    def test_decode_crash_restores_from_prefill_backup(self):
        """§3.3: a decode crash re-prefills only (context - backed) tokens
        when the prefill side kept the backup copy."""
        system = make_system(
            decode_tp=1,
            kv_override=4096,
            ws_config=WindServeConfig(backup_min_prompt_tokens=256),
        )
        model = get_model("opt-13b")
        trace = generate_trace(SHAREGPT, rate=12.0, num_requests=100, seed=3, model=model)
        system.load_workload(trace)
        triggered = [False]
        # The phase of each request a backup restore re-queues, read right
        # after the restore: it rejoins ``prefilling``, so it is PREFILLING.
        restored_phases = []
        requeue = system._requeue_on_prefill

        def watch_requeue(request):
            before = system.metrics.counters.get("backup_restore", 0)
            requeue(request)
            if system.metrics.counters.get("backup_restore", 0) > before:
                restored_phases.append(request.phase)

        system._requeue_on_prefill = watch_requeue

        def crash_when_backed():
            decode = system.decode_instance
            if not triggered[0] and system.backups and not decode.failed:
                triggered[0] = True
                lost = decode.fail()
                system.register_crash(decode, lost)
                system.sim.schedule(0.5, decode.recover)
                return
            if not triggered[0] and system.sim.pending_events:
                system.sim.schedule(0.005, crash_when_backed)

        system.sim.schedule(0.01, crash_when_backed)
        system.sim.run_until_idle()
        assert triggered[0], "workload never produced a retained backup"
        assert system.metrics.counters.get("backup_restore", 0) >= 1
        assert restored_phases
        assert all(phase is Phase.PREFILLING for phase in restored_phases), restored_phases
        assert_conserved(system, 100)
        restored = [r for r in system.metrics.completed if r.recompute_count > 0]
        assert restored
        for r in restored:
            assert r.output_generated == r.output_tokens


class TestShedding:
    def test_degraded_mode_sheds_beyond_limit(self):
        system = make_system()
        system.config.resilience = ResilienceConfig(degraded_inflight_limit=2)
        FaultInjector(system, crash_plan("decode", 0.1, 2.0)).arm()
        system.run_to_completion(workload(n=80, spacing=0.01))
        assert_conserved(system, 80)
        assert system.metrics.shed, "expected shedding with a tiny in-flight limit"
        for r in system.metrics.shed:
            assert r.phase is Phase.SHED
            assert r.shed_time is not None

    def test_no_shedding_without_detection(self):
        # Shedding keys off scheduler knowledge, not ground truth.
        system = make_system()
        system.config.resilience = ResilienceConfig(degraded_inflight_limit=0)
        system.run_to_completion(workload(n=20))
        assert not system.metrics.shed


class TestReproducibility:
    def test_same_seed_same_fingerprint(self):
        def run():
            system = make_system()
            FaultInjector(system, crash_plan("decode", 0.25, 1.0)).arm()
            system.run_to_completion(workload())
            return system.run_fingerprint()

        assert run() == run()

    def test_fault_plans_perturb_the_run(self):
        plain = make_system()
        plain.run_to_completion(workload())
        faulted = make_system()
        FaultInjector(faulted, crash_plan("decode", 0.25, 1.0)).arm()
        faulted.run_to_completion(workload())
        assert plain.run_fingerprint() != faulted.run_fingerprint()
