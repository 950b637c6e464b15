"""The supervisor: deadline- and heartbeat-enforced task execution.

Each task attempt runs in its own spawned ``multiprocessing`` worker
(one pristine interpreter per attempt — the same isolation discipline
the old ``max_tasks_per_child=1`` pool gave, so results stay
byte-identical to serial runs).  The worker beats a pipe from a daemon
thread (:mod:`repro.runtime.worker`); the supervisor multiplexes every
worker's pipe and process sentinel through
``multiprocessing.connection.wait`` — completion latency is one wakeup,
not a polling interval — and enforces:

* a per-task **wall-clock deadline** (``SupervisorConfig.deadline``):
  an overrunning worker is SIGKILLed, reaped, and classified
  ``timeout``;
* **heartbeat liveness** (``heartbeat_timeout``): a worker that stops
  beating — SIGSTOPped, wedged in the kernel, deadlocked — is killed
  and classified ``timeout`` without waiting for the full deadline.
  The silence clock starts at the worker's first beat, which it sends
  once the task's module is imported: interpreter start-up under load
  is bounded by the deadline only;
* **silent deaths**: a worker that disappears without reporting
  (external SIGKILL, the OOM killer, a segfault) is classified from
  its exitcode (:func:`repro.runtime.failures.classify_exit`);
* **deterministic retry**: failed attempts are re-queued after a
  :class:`~repro.runtime.retry.RetryPolicy` backoff whose jitter is
  keyed on ``(seed, name, attempt)`` — reruns wait identical delays;
* a ``max_failures`` **circuit breaker**: once that many tasks have
  permanently failed, still-queued tasks are finalized as ``skipped``
  (running ones finish) and the batch degrades to a partial summary.

Supervisor events feed the installed :mod:`repro.obs` metrics registry
(component ``runtime``) when one is present, and always accumulate in
``Supervisor.metrics`` plus the structured ``Supervisor.events`` list.
"""

from __future__ import annotations

import collections
import dataclasses
import heapq
import itertools
import multiprocessing
import time
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Iterable, Optional

from repro.experiments.timing import wallclock
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import registry as obs_registry
from repro.runtime.failures import TaskFailure, classify_exit
from repro.runtime.retry import RetryPolicy
from repro.runtime.worker import child_main

#: Wall-second buckets for the per-task duration histogram (the obs
#: default ladder is nanosecond-oriented; supervised tasks live in
#: seconds).
TASK_SECONDS_BUCKETS = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)


@dataclasses.dataclass
class TaskSpec:
    """One supervised task: a picklable module-level callable plus its
    arguments (the spawn start method re-imports both by name)."""

    name: str
    fn: Callable
    args: tuple = ()
    kwargs: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class TaskResult:
    """What one task produced across all its attempts."""

    name: str
    value: Any = None                    # last reported value, if any
    failure: Optional[TaskFailure] = None
    attempts: int = 0
    retry_delays: list = dataclasses.field(default_factory=list)
    logs: list = dataclasses.field(default_factory=list)
    elapsed: float = 0.0                 # wall seconds, first launch → final

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclasses.dataclass
class SupervisorConfig:
    """Tunables for one supervised batch; see the module docstring."""

    max_workers: int = 1
    seed: int = 0
    deadline: Optional[float] = None        # per-task wall seconds
    heartbeat_interval: float = 0.2         # worker beat period
    heartbeat_timeout: Optional[float] = None  # silence before kill
    retry: RetryPolicy = dataclasses.field(default_factory=RetryPolicy)
    max_failures: Optional[int] = None      # circuit-breaker threshold
    start_method: str = "spawn"
    wait_slice: float = 0.5                 # max blocking wait per loop

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got "
                             f"{self.max_workers}")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        for label, value in (("deadline", self.deadline),
                             ("heartbeat_timeout", self.heartbeat_timeout)):
            if value is not None and value <= 0:
                raise ValueError(f"{label} must be positive, got {value}")
        if self.max_failures is not None and self.max_failures < 1:
            raise ValueError(f"max_failures must be >= 1, got "
                             f"{self.max_failures}")


class _Worker:
    """Bookkeeping for one live worker process."""

    __slots__ = ("spec", "attempt", "process", "conn", "started",
                 "last_beat", "deadline_at", "outcome", "eof")

    def __init__(self, spec: TaskSpec, attempt: int, process, conn,
                 started: float, deadline: Optional[float]) -> None:
        self.spec = spec
        self.attempt = attempt
        self.process = process
        self.conn = conn
        self.started = started
        self.last_beat: Optional[float] = None   # no beat yet: starting up
        self.deadline_at = None if deadline is None else started + deadline
        self.outcome = None   # ("ok", value) | ("error", exc_type, tb)
        self.eof = False


class Supervisor:
    """Run a batch of :class:`TaskSpec` under supervision.

    ``run`` returns ``{name: TaskResult}``.  ``result_failure`` lets the
    caller declare a *returned* value a failure (the experiments driver
    passes ``lambda outcome: outcome.failure`` so a captured in-task
    crash participates in supervisor-level retry); ``on_complete`` fires
    once per task, in completion order, when its result is final — the
    hook the CLI uses for transactional manifest checkpoints and
    submission-order reporting.
    """

    def __init__(self, config: Optional[SupervisorConfig] = None) -> None:
        self.config = config or SupervisorConfig()
        self.metrics = MetricsRegistry()
        #: Structured, timestamp-free event log (launch/ok/retry/...).
        self.events: list = []

    # ------------------------------------------------------------------
    # Event + metrics plumbing
    # ------------------------------------------------------------------
    def _event(self, event: str, task: str, attempt: int, **extra) -> None:
        record = {"event": event, "task": task, "attempt": attempt}
        record.update(extra)
        self.events.append(record)

    def _count(self, name: str) -> None:
        self.metrics.counter("runtime", name).inc()
        registry = obs_registry()
        if registry is not None:
            registry.counter("runtime", name).inc()

    def _observe_elapsed(self, seconds: float) -> None:
        self.metrics.histogram("runtime", "task_seconds",
                               TASK_SECONDS_BUCKETS).observe(seconds)
        registry = obs_registry()
        if registry is not None:
            registry.histogram("runtime", "task_seconds",
                               TASK_SECONDS_BUCKETS).observe(seconds)

    # ------------------------------------------------------------------
    # The batch loop
    # ------------------------------------------------------------------
    def run(self, tasks: Iterable[TaskSpec],
            result_failure: Optional[Callable[[Any],
                                              Optional[TaskFailure]]] = None,
            on_complete: Optional[Callable[[TaskResult], None]] = None,
            ) -> dict:
        specs = list(tasks)
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate task names in batch: {names}")
        config = self.config
        ctx = multiprocessing.get_context(config.start_method)

        results = {spec.name: TaskResult(name=spec.name) for spec in specs}
        pending = collections.deque((spec, 1) for spec in specs)
        waiting: list = []          # heap of (ready_at, tiebreak, spec, att)
        running: dict = {}          # name -> _Worker
        first_started: dict = {}
        tiebreak = itertools.count()
        state = {"failures": 0, "circuit_open": False}

        def finalize(result: TaskResult) -> None:
            started = first_started.get(result.name)
            if started is not None:
                result.elapsed = wallclock() - started
                self._observe_elapsed(result.elapsed)
            if result.failure is not None \
                    and result.failure.kind != "skipped":
                state["failures"] += 1
                if config.max_failures is not None \
                        and state["failures"] >= config.max_failures:
                    state["circuit_open"] = True
            if on_complete is not None:
                on_complete(result)

        def resolve(spec: TaskSpec, attempt: int, value: Any,
                    failure: Optional[TaskFailure]) -> None:
            """One attempt ended; retry it or finalize the task."""
            result = results[spec.name]
            if failure is None and result_failure is not None \
                    and value is not None:
                failure = result_failure(value)
            if failure is None:
                result.value = value
                result.attempts = attempt
                self._event("ok", spec.name, attempt)
                self._count("tasks_ok")
                finalize(result)
                return
            failure.attempts = attempt
            self._event(failure.kind, spec.name, attempt,
                        detail=failure.message)
            self._count(f"tasks_{failure.kind}")
            if attempt <= config.retry.retries:
                delay = config.retry.delay(config.seed, spec.name, attempt)
                result.retry_delays.append(delay)
                label = f" ({failure.exc_type})" if failure.exc_type else ""
                result.logs.append(
                    f"[{spec.name}: attempt {attempt} {failure.kind}"
                    f"{label}; retrying in {delay:.2f}s]")
                self._event("retry", spec.name, attempt,
                            delay=round(delay, 6))
                self._count("retries")
                heapq.heappush(waiting, (wallclock() + delay,
                                         next(tiebreak), spec, attempt + 1))
                return
            result.value = value
            result.failure = failure
            result.attempts = attempt
            finalize(result)

        def skip(spec: TaskSpec) -> None:
            result = results[spec.name]
            result.failure = TaskFailure(
                kind="skipped",
                message=f"circuit breaker open after "
                        f"{state['failures']} failure(s)",
                attempts=0)
            self._event("skipped", spec.name, 0)
            self._count("tasks_skipped")
            finalize(result)

        def launch(spec: TaskSpec, attempt: int) -> None:
            recv_conn, send_conn = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=child_main,
                args=(send_conn, spec.fn, spec.args, spec.kwargs,
                      config.heartbeat_interval),
                name=f"supervised-{spec.name}-a{attempt}")
            process.start()
            send_conn.close()
            now = wallclock()
            first_started.setdefault(spec.name, now)
            running[spec.name] = _Worker(spec, attempt, process, recv_conn,
                                         now, config.deadline)
            self._event("launch", spec.name, attempt)
            self._count("tasks_launched")

        def reap(worker: _Worker, kill: bool = False) -> None:
            if kill:
                worker.process.kill()
            worker.process.join(timeout=10.0)
            if worker.process.is_alive():   # pragma: no cover - defensive
                worker.process.kill()
                worker.process.join(timeout=10.0)
            worker.conn.close()
            del running[worker.spec.name]

        def drain(worker: _Worker, now: float) -> None:
            while not worker.eof and worker.outcome is None:
                try:
                    if not worker.conn.poll():
                        return
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    worker.eof = True
                    return
                if message[0] == "beat":
                    worker.last_beat = now
                else:
                    worker.outcome = message

        def next_timeout(now: float) -> float:
            targets = []
            for worker in running.values():
                if worker.deadline_at is not None:
                    targets.append(worker.deadline_at)
                if config.heartbeat_timeout is not None \
                        and worker.last_beat is not None:
                    targets.append(worker.last_beat
                                   + config.heartbeat_timeout)
            if waiting:
                targets.append(waiting[0][0])
            if not targets:
                return config.wait_slice
            return min(config.wait_slice, max(0.0, min(targets) - now))

        try:
            while pending or waiting or running:
                now = wallclock()
                while waiting and waiting[0][0] <= now:
                    _, _, spec, attempt = heapq.heappop(waiting)
                    pending.append((spec, attempt))
                if state["circuit_open"] and (pending or waiting):
                    leftovers = [entry[:2] for entry in pending]
                    leftovers += [(spec, attempt)
                                  for _, _, spec, attempt in waiting]
                    pending.clear()
                    waiting.clear()
                    for spec, _ in leftovers:
                        skip(spec)
                    continue
                while pending and len(running) < config.max_workers:
                    spec, attempt = pending.popleft()
                    launch(spec, attempt)
                if not running:
                    if waiting:
                        pause = max(0.0, waiting[0][0] - wallclock())
                        time.sleep(min(pause, config.wait_slice))
                    continue
                handles = []
                by_handle = {}
                for worker in running.values():
                    handles.append(worker.conn)
                    by_handle[worker.conn] = worker
                    handles.append(worker.process.sentinel)
                    by_handle[worker.process.sentinel] = worker
                ready = mp_connection.wait(handles, next_timeout(now))
                now = wallclock()
                touched = {id(by_handle[h]) for h in ready}
                for worker in list(running.values()):
                    if id(worker) in touched:
                        drain(worker, now)
                for worker in list(running.values()):
                    if worker.outcome is not None:
                        reap(worker)
                        if worker.outcome[0] == "ok":
                            resolve(worker.spec, worker.attempt,
                                    worker.outcome[1], None)
                        else:
                            _, exc_type, trace = worker.outcome
                            resolve(worker.spec, worker.attempt, None,
                                    TaskFailure(
                                        kind="crash",
                                        message=trace.strip()
                                        .splitlines()[-1],
                                        exc_type=exc_type,
                                        traceback=trace))
                    elif not worker.process.is_alive():
                        drain(worker, now)   # catch a last-gasp message
                        if worker.outcome is not None:
                            continue         # handled next iteration
                        exitcode = worker.process.exitcode
                        reap(worker)
                        resolve(worker.spec, worker.attempt, None,
                                classify_exit(exitcode, worker.attempt))
                    elif worker.deadline_at is not None \
                            and now >= worker.deadline_at:
                        reap(worker, kill=True)
                        resolve(worker.spec, worker.attempt, None,
                                TaskFailure(
                                    kind="timeout",
                                    message=f"wall-clock deadline of "
                                            f"{config.deadline}s exceeded; "
                                            f"worker killed"))
                    elif config.heartbeat_timeout is not None \
                            and worker.last_beat is not None \
                            and now - worker.last_beat \
                            >= config.heartbeat_timeout:
                        reap(worker, kill=True)
                        resolve(worker.spec, worker.attempt, None,
                                TaskFailure(
                                    kind="timeout",
                                    message=f"no heartbeat for more than "
                                            f"{config.heartbeat_timeout}s; "
                                            f"hung worker killed"))
        finally:
            for worker in list(running.values()):
                reap(worker, kill=True)
        return results
