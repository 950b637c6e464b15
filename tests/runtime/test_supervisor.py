"""The supervisor's happy paths, failure classification, retry, and
the circuit breaker — chaos (kill/stop) scenarios included.

Worker startup is real process spawn (a few hundred ms each), so the
tests keep batches small and heartbeat windows tight.
"""

import pytest

from repro import obs
from repro.runtime import (
    RetryPolicy,
    Supervisor,
    SupervisorConfig,
    TaskFailure,
    TaskSpec,
)
from tests.runtime import chaos_dead_import, chaos_slow_import, chaos_tasks

FAST_RETRY = RetryPolicy(retries=1, base_delay=0.01, max_delay=0.05)


def spec(name, fn, *args):
    return TaskSpec(name=name, fn=fn, args=args)


class TestHappyPath:
    def test_batch_completes(self):
        supervisor = Supervisor(SupervisorConfig(max_workers=2))
        results = supervisor.run([
            spec("a", chaos_tasks.ok_task, "a"),
            spec("b", chaos_tasks.ok_task, "b"),
            spec("c", chaos_tasks.ok_task, "c"),
        ])
        assert {n: r.value for n, r in results.items()} == {
            "a": "done:a", "b": "done:b", "c": "done:c"}
        assert all(r.ok and r.attempts == 1 for r in results.values())
        snapshot = supervisor.metrics.snapshot()["runtime"]
        assert snapshot["tasks_launched"]["value"] == 3
        assert snapshot["tasks_ok"]["value"] == 3

    def test_on_complete_fires_once_per_task(self):
        seen = []
        supervisor = Supervisor(SupervisorConfig(max_workers=2))
        supervisor.run(
            [spec(f"t{i}", chaos_tasks.ok_task, str(i)) for i in range(3)],
            on_complete=lambda result: seen.append(result.name))
        assert sorted(seen) == ["t0", "t1", "t2"]

    def test_duplicate_names_rejected(self):
        supervisor = Supervisor()
        with pytest.raises(ValueError):
            supervisor.run([spec("x", chaos_tasks.ok_task, "1"),
                            spec("x", chaos_tasks.ok_task, "2")])

    def test_empty_batch(self):
        assert Supervisor().run([]) == {}


class TestCrashClassification:
    def test_crash_captures_type_and_traceback(self):
        supervisor = Supervisor()
        results = supervisor.run(
            [spec("boom", chaos_tasks.crash_task, "injected")])
        failure = results["boom"].failure
        assert failure.kind == "crash"
        assert failure.exc_type == "RuntimeError"
        assert "injected" in failure.traceback
        assert failure.attempts == 1

    def test_retry_rescues_flaky_task(self, tmp_path):
        supervisor = Supervisor(SupervisorConfig(retry=FAST_RETRY))
        results = supervisor.run([spec(
            "flaky", chaos_tasks.flaky_task, str(tmp_path / "sentinel"))])
        result = results["flaky"]
        assert result.ok
        assert result.value == "recovered"
        assert result.attempts == 2
        assert len(result.retry_delays) == 1
        # the backoff actually drawn matches the deterministic policy
        assert result.retry_delays[0] == FAST_RETRY.delay(0, "flaky", 1)
        assert any("retrying in" in line for line in result.logs)

    def test_result_failure_hook_drives_retry(self, tmp_path):
        supervisor = Supervisor(SupervisorConfig(retry=FAST_RETRY))
        results = supervisor.run(
            [spec("moody", chaos_tasks.moody_task,
                  str(tmp_path / "sentinel"))],
            result_failure=lambda value: None if value == "good"
            else TaskFailure(kind="crash", message=f"rejected {value!r}"))
        assert results["moody"].ok
        assert results["moody"].value == "good"
        assert results["moody"].attempts == 2


class TestSignalDeath:
    def test_sigkilled_worker_classified_and_retried(self, tmp_path):
        supervisor = Supervisor(SupervisorConfig(retry=FAST_RETRY))
        results = supervisor.run([spec(
            "victim", chaos_tasks.selfkill_task,
            str(tmp_path / "sentinel"))])
        result = results["victim"]
        assert result.ok
        assert result.value == "survived"
        assert result.attempts == 2
        kinds = [e for e in supervisor.events if e["event"] == "signal"]
        assert kinds and kinds[0]["task"] == "victim"
        snapshot = supervisor.metrics.snapshot()["runtime"]
        assert snapshot["tasks_signal"]["value"] == 1
        assert snapshot["retries"]["value"] == 1

    def test_sigkill_without_retries_is_final(self, tmp_path):
        supervisor = Supervisor()
        results = supervisor.run([spec(
            "victim", chaos_tasks.selfkill_task,
            str(tmp_path / "sentinel"))])
        failure = results["victim"].failure
        assert failure.kind == "signal"
        assert failure.signal_name == "SIGKILL"
        assert failure.exitcode == -9


class TestTimeouts:
    def test_deadline_overrun_killed_and_classified(self):
        supervisor = Supervisor(SupervisorConfig(
            deadline=0.5, heartbeat_interval=0.05))
        results = supervisor.run([spec("sleepy", chaos_tasks.sleep_task,
                                       30.0)])
        failure = results["sleepy"].failure
        assert failure.kind == "timeout"
        assert "deadline" in failure.message
        assert results["sleepy"].elapsed < 10.0

    def test_heartbeat_silent_hang_killed_and_retried(self, tmp_path):
        """The acceptance scenario: a SIGSTOPped (hence heartbeat-
        silent) worker is killed well before any deadline, classified
        ``timeout``, and the deterministic retry recovers it."""
        supervisor = Supervisor(SupervisorConfig(
            heartbeat_interval=0.05, heartbeat_timeout=0.5,
            deadline=60.0, retry=FAST_RETRY))
        results = supervisor.run([spec(
            "hung", chaos_tasks.selfstop_task,
            str(tmp_path / "sentinel"))])
        result = results["hung"]
        assert result.ok
        assert result.value == "resumed"
        assert result.attempts == 2
        timeouts = [e for e in supervisor.events
                    if e["event"] == "timeout"]
        assert timeouts and "heartbeat" in timeouts[0]["detail"]
        assert result.retry_delays == [FAST_RETRY.delay(0, "hung", 1)]

    def test_slow_startup_is_not_a_hang(self):
        """The silence clock starts at the worker's first beat: a
        worker whose task module takes longer than the heartbeat
        timeout to import is healthy, and finishes on attempt 1."""
        timeout = 0.5
        assert chaos_slow_import.IMPORT_DELAY_S > timeout
        supervisor = Supervisor(SupervisorConfig(
            heartbeat_interval=0.05, heartbeat_timeout=timeout,
            deadline=60.0))
        results = supervisor.run([spec(
            "slow", chaos_slow_import.ok_task, "slow")])
        result = results["slow"]
        assert result.ok, result.failure
        assert result.value == "done:slow"
        assert result.attempts == 1

    def test_death_during_startup_is_classified_from_the_exitcode(self):
        supervisor = Supervisor(SupervisorConfig(
            heartbeat_interval=0.05, heartbeat_timeout=0.5,
            deadline=60.0))
        results = supervisor.run([spec(
            "dead", chaos_dead_import.ok_task, "dead")])
        failure = results["dead"].failure
        assert failure.kind == "crash"
        assert failure.exitcode == 3


class TestCircuitBreaker:
    def test_max_failures_skips_the_rest(self, tmp_path):
        supervisor = Supervisor(SupervisorConfig(
            max_workers=1, max_failures=1))
        results = supervisor.run([
            spec("boom", chaos_tasks.crash_task, "first failure"),
            spec("late1", chaos_tasks.ok_task, "x"),
            spec("late2", chaos_tasks.ok_task, "y"),
        ])
        assert results["boom"].failure.kind == "crash"
        assert results["late1"].failure.kind == "skipped"
        assert results["late2"].failure.kind == "skipped"
        snapshot = supervisor.metrics.snapshot()["runtime"]
        assert snapshot["tasks_skipped"]["value"] == 2
        # the skipped tasks never launched a worker
        assert snapshot["tasks_launched"]["value"] == 1


class TestObsIntegration:
    def test_supervisor_events_reach_installed_registry(self):
        obs.install(metrics=True)
        try:
            Supervisor().run([spec("a", chaos_tasks.ok_task, "a")])
            snapshot = obs.registry().snapshot()["runtime"]
        finally:
            obs.uninstall()
        assert snapshot["tasks_launched"]["value"] == 1
        assert snapshot["tasks_ok"]["value"] == 1
        assert snapshot["task_seconds"]["count"] == 1
