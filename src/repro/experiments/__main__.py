"""Command-line experiment runner.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments table5 fig13
    python -m repro.experiments --all --out results/
    python -m repro.experiments --all --jobs 4

Each experiment prints its paper-style table and writes it under the
output directory.  Runtimes range from sub-second (table1) to about
25 s (fig13 at full scale, on a 2-vCPU Xeon).

Experiments are *isolated*: a crash in one writes its traceback next to
the results as ``<name>.error.txt``, the remaining experiments still
run, and the process exits nonzero with a failure summary.

``--jobs N`` runs each experiment in a fresh spawn process, at most N
at once, so results and tables are byte-identical to a serial run and
stdout stays in submission order.  A process that dies without a
Python exception fails its own experiment only, reported the same way
with its exit code or signal, with no respawn and no retry
(docs/RUNTIME.md).
"""

from __future__ import annotations

import argparse
import pathlib
import signal
import sys

from repro.experiments.runner import REGISTRY, TaskOutcome, run_task, send_task


def _report(outcome: TaskOutcome, out: str,
            failures: dict[str, str]) -> None:
    """Print one finished experiment, writing ``<name>.error.txt`` on
    failure."""
    if not outcome.ok:
        failures[outcome.name] = outcome.error
        out_dir = pathlib.Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        error_path = out_dir / f"{outcome.name}.error.txt"
        error_path.write_text(outcome.error)
        print(outcome.error, file=sys.stderr)
        print(f"[{outcome.name}: FAILED -> {error_path}]\n",
              file=sys.stderr)
        return
    print(outcome.table)
    print(f"[{outcome.name}: {outcome.elapsed:.1f}s -> {outcome.path}]")
    for extra in outcome.extras:
        print(f"[{outcome.name}: wrote {extra}]")
    print()


def _task_args(name: str, args) -> tuple:
    """``run_task``'s arguments for one experiment, its runner taken
    from the module REGISTRY (which tests may patch)."""
    return (name, REGISTRY[name], args.seed, args.smoke, args.full,
            args.out, args.trace, args.metrics, args.profile,
            args.trace_sample)


def _run_pool(names: list[str], args):
    """Yield each experiment's outcome in submission order, each run in
    a fresh spawn process (at most ``args.jobs`` at once) that sends its
    ``TaskOutcome`` back on a pipe.  A process that exits without
    sending one fails its own experiment only, with its exit code or
    signal as the error."""
    import multiprocessing
    from multiprocessing.connection import wait

    spawn = multiprocessing.get_context("spawn")
    waiting, running, done = list(names), {}, {}
    for name in names:
        while name not in done:
            while waiting and len(running) < args.jobs:
                task = waiting.pop(0)
                reader, writer = spawn.Pipe(duplex=False)
                process = spawn.Process(target=send_task, args=(
                    writer, _task_args(task, args)), name=task)
                process.start()
                writer.close()
                running[task] = (process, reader)
            ready = wait([handle for process, reader in running.values()
                          for handle in (process.sentinel, reader)])
            for task, (process, reader) in list(running.items()):
                if process.sentinel in ready or reader in ready:
                    try:
                        outcome = reader.recv()
                    except EOFError:  # exited without sending one
                        outcome = None
                    process.join()
                    reader.close()
                    del running[task]
                    done[task] = outcome if outcome is not None else \
                        TaskOutcome(name=task,
                                    error=_death(task, process.exitcode))
        yield done.pop(name)


def _death(name: str, code: int) -> str:
    """The error text of an experiment whose process died silently."""
    how = (f"was killed by signal {signal.Signals(-code).name}" if code < 0
           else f"exited with code {code}")
    return f"the process running {name} {how} without reporting an outcome\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment names (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--out", default="results",
                        help="output directory (default: results/)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--full", action="store_true",
                        help="paper-scale workloads (Figure 13: 6,715 "
                             "traces, 17 x 395, as 17 does not divide the "
                             "paper's 6,720); --all --full takes about "
                             "45 s on a shared 2-vCPU Xeon")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk payloads for CI-speed runs (only "
                             "experiments that support it scale down)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes; results are "
                             "byte-identical to a serial run (default: 1)")
    parser.add_argument("--trace", action="store_true",
                        help="record a structured event trace and write "
                             "<name>.trace.jsonl plus a Chrome-loadable "
                             "<name>.trace.json next to the results")
    parser.add_argument("--trace-sample", type=int, default=1,
                        metavar="N",
                        help="record 1-in-N kernel dispatch events "
                             "(implies --trace; skipped dispatches are "
                             "accounted exactly, default: 1 = record "
                             "all)")
    parser.add_argument("--metrics", action="store_true",
                        help="collect the repro.obs metrics registry and "
                             "write <name>.metrics.json")
    parser.add_argument("--profile", action="store_true",
                        help="wrap each experiment in cProfile and write "
                             "<name>.prof.txt (wall-clock profiling; "
                             "results are unaffected)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be positive")
    if args.trace_sample < 1:
        parser.error("--trace-sample must be a positive integer")
    if args.trace_sample > 1:
        args.trace = True

    if args.list:
        for name in REGISTRY:
            print(name)
        return 0
    names = list(REGISTRY) if args.all else args.experiments
    if not names:
        parser.error("name at least one experiment, or use --all / --list")
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        parser.error(f"unknown experiments: {unknown} (see --list)")

    failures: dict[str, str] = {}
    if args.jobs > 1 and len(names) > 1:
        outcomes = _run_pool(names, args)
    else:
        outcomes = (run_task(*_task_args(name, args)) for name in names)
    for outcome in outcomes:
        _report(outcome, args.out, failures)

    if failures:
        print(f"{len(failures)} of {len(names)} experiments failed "
              f"({len(names) - len(failures)} completed): "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
