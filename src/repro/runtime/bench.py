"""Paired supervisor-vs-bare-pool overhead measurement.

``tools/bench_gate.py`` budgets the supervised runtime at a few percent
over the bare ``ProcessPoolExecutor`` it replaced on the ``--jobs``
path.  Both sides run the same batch of deterministic spin tasks with
the same spawn start method and the same one-process-per-task
discipline, strictly interleaved min-of-N, so machine noise hits both
equally.

Run as a module so spawn children re-import *this* light module as
``__mp_main__`` instead of the heavyweight bench_gate script::

    python -m repro.runtime.bench --tasks 4 --jobs 2 --repeats 2
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import multiprocessing
import sys

from repro.experiments.timing import wallclock
from repro.runtime.supervisor import Supervisor, SupervisorConfig, TaskSpec

#: Spin iterations per task — ~20-40 ms of pure-Python work, enough for
#: per-task supervision overhead to be resolvable but not spawn-bound.
SPIN_ITERATIONS = 300_000


def spin_task(iterations: int = SPIN_ITERATIONS) -> int:
    """A deterministic CPU-bound task (module-level, spawn-picklable)."""
    total = 0
    for i in range(iterations):
        total += i * i
    return total


def run_bare_pool(tasks: int, jobs: int) -> None:
    """The replaced baseline: a spawn pool, one process per task."""
    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=jobs, mp_context=context, max_tasks_per_child=1,
    ) as pool:
        futures = [pool.submit(spin_task, SPIN_ITERATIONS)
                   for _ in range(tasks)]
        for future in futures:
            future.result()


def run_supervised(tasks: int, jobs: int) -> None:
    """The same batch through the supervisor (heartbeats on, no
    deadline — the production default for a plain ``--jobs`` run)."""
    supervisor = Supervisor(SupervisorConfig(max_workers=jobs))
    specs = [TaskSpec(name=f"spin{i}", fn=spin_task,
                      args=(SPIN_ITERATIONS,)) for i in range(tasks)]
    results = supervisor.run(specs)
    assert all(result.ok for result in results.values())


def measure(tasks: int = 4, jobs: int = 2, repeats: int = 2) -> dict:
    """Interleaved min-of-N wall times for both sides plus the relative
    supervisor overhead (clamped at 0 — the supervisor is occasionally
    *faster* than the pool's own bookkeeping)."""
    run_bare_pool(tasks, jobs)       # warm both paths outside the timing
    run_supervised(tasks, jobs)
    best_bare = best_supervised = float("inf")
    for _ in range(repeats):
        started = wallclock()
        run_bare_pool(tasks, jobs)
        best_bare = min(best_bare, wallclock() - started)
        started = wallclock()
        run_supervised(tasks, jobs)
        best_supervised = min(best_supervised, wallclock() - started)
    return {
        "tasks": tasks,
        "jobs": jobs,
        "bare_pool_s": round(best_bare, 6),
        "supervised_s": round(best_supervised, 6),
        "overhead": round(max(0.0, best_supervised / best_bare - 1.0), 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tasks", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args(argv)
    if args.tasks < 1 or args.jobs < 1 or args.repeats < 1:
        parser.error("--tasks/--jobs/--repeats must be positive")
    print(json.dumps(measure(args.tasks, args.jobs, args.repeats)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
