"""Command-line experiment runner.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments table5 fig13
    python -m repro.experiments --all --out results/ --retries 1
    python -m repro.experiments --all --jobs 4 --timeout 600 --resume

Each experiment prints its paper-style table and writes it under the
output directory.  Runtimes range from sub-second (table1) to about
25 s (fig13 at full scale, on a 2-vCPU Xeon).

Experiments are *isolated*: a crash in one captures its traceback
(written next to the results as ``<name>.error.txt`` plus a structured
``<name>.error.json`` sidecar), the remaining experiments still run,
and the process exits nonzero with a failure summary.  ``--retries N``
re-attempts a crashed experiment before giving up.

``--jobs N`` fans the batch out over the supervised runtime
(:mod:`repro.runtime`): each experiment runs in a pristine spawned
worker with a heartbeat pipe, so results and tables are byte-identical
to a serial run and stdout stays in submission order.  On top of the
old pool semantics the supervisor adds ``--timeout`` (per-experiment
wall-clock deadline; an overrunning or heartbeat-silent worker is
SIGKILLed and classified ``timeout``), deterministic retry backoff,
and ``--max-failures`` (a circuit breaker that degrades to a
partial-batch summary).  Giving ``--timeout``/``--heartbeat-timeout``
forces supervised worker execution even at ``--jobs 1``.

Every finished experiment is checkpointed transactionally into
``<out>/run_manifest.json``; ``--resume`` skips experiments whose
recorded outputs still verify, so a killed sweep continues where it
stopped and ends byte-identical to an uninterrupted run (see
docs/RUNTIME.md).

``--fleet-metrics`` builds the fleet view once, after the batch, from
the per-task ``<name>.metrics.json`` files of the experiments that
completed (or were verified-resumed) in this invocation: one merged
``fleet_metrics.json`` (docs/OBSERVABILITY.md, "Fleet metrics").  It
is byte-identical between serial, ``--jobs`` and ``--resume`` runs of
the same seed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.experiments.runner import (  # noqa: F401  (REGISTRY/FULL_SCALE re-exported for compatibility)
    FULL_SCALE,
    REGISTRY,
    TaskOutcome,
    _invoke,
    run_task,
)
from repro.obs.fleet import write_fleet_artifacts
from repro.runtime import (
    ManifestConfigMismatch,
    RetryPolicy,
    RunManifest,
    Supervisor,
    SupervisorConfig,
    TaskResult,
    TaskSpec,
)


def _report(outcome: TaskOutcome, out: str,
            failures: dict[str, str]) -> None:
    """Print one finished experiment the way the serial loop always
    has, writing ``<name>.error.txt`` + ``<name>.error.json`` on
    failure.  Buffered per-attempt retry notices are emitted here, in
    deterministic submission order, never from workers."""
    for line in outcome.attempt_logs:
        print(line, file=sys.stderr)
    if not outcome.ok:
        failures[outcome.name] = outcome.error
        out_dir = pathlib.Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        error_path = out_dir / f"{outcome.name}.error.txt"
        error_path.write_text(outcome.error)
        sidecar = {"name": outcome.name, "error_file": error_path.name}
        if outcome.failure is not None:
            record = outcome.failure.as_dict()
            record.pop("traceback", None)   # the .txt already holds it
            sidecar.update(record)
        else:
            sidecar.update({"kind": "crash", "attempts": outcome.attempts})
            if outcome.error_type:
                sidecar["exc_type"] = outcome.error_type
        (out_dir / f"{outcome.name}.error.json").write_text(
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
        print(outcome.error, file=sys.stderr)
        print(f"[{outcome.name}: FAILED after {outcome.attempts} "
              f"attempt(s) -> {error_path}]\n", file=sys.stderr)
        return
    print(outcome.table)
    print(f"[{outcome.name}: {outcome.elapsed:.1f}s -> {outcome.path}]")
    for extra in outcome.extras:
        print(f"[{outcome.name}: wrote {extra}]")
    print()


def _record(outcome: TaskOutcome, manifest: RunManifest) -> None:
    """Checkpoint one finished experiment into the manifest
    (transactional save after every task)."""
    if outcome.ok:
        outputs = [outcome.path] + list(outcome.extras)
        manifest.record_ok(outcome.name, outcome.attempts, outputs)
    elif outcome.failure is not None:
        manifest.record_failure(outcome.name, outcome.failure)
    manifest.save()


def _run_serial(names: list[str], args, manifest: RunManifest,
                failures: dict[str, str], skipped: list[str]) -> None:
    """The in-process path (``--jobs 1``, no deadline): the patchable
    module REGISTRY, in-process retries, per-task checkpoints."""
    for index, name in enumerate(names):
        if args.max_failures is not None \
                and len(failures) >= args.max_failures:
            remaining = names[index:]
            for leftover in remaining:
                manifest.record_skipped(
                    leftover, f"circuit breaker open after "
                              f"{len(failures)} failure(s)")
            manifest.save()
            skipped.extend(remaining)
            print(f"[circuit breaker: {len(failures)} failure(s) reached "
                  f"--max-failures {args.max_failures}; skipping "
                  f"{len(remaining)} remaining experiment(s)]",
                  file=sys.stderr)
            return
        outcome = run_task(name, args.seed, args.smoke, args.full,
                           args.retries, args.out, registry=REGISTRY,
                           trace=args.trace, metrics=args.metrics,
                           profile=args.profile,
                           trace_sample=args.trace_sample,
                           report=args.report)
        _record(outcome, manifest)
        _report(outcome, args.out, failures)


def _outcome_of(result: TaskResult) -> TaskOutcome:
    """Map a supervisor :class:`TaskResult` onto the experiment
    outcome the reporting layer understands."""
    if isinstance(result.value, TaskOutcome):
        outcome = result.value
    else:
        outcome = TaskOutcome(name=result.name)
    outcome.attempts = max(result.attempts, 1)
    outcome.attempt_logs = list(result.logs) + list(outcome.attempt_logs)
    outcome.elapsed = result.elapsed
    if result.failure is not None:
        outcome.failure = result.failure
        outcome.error_type = (result.failure.exc_type
                              or result.failure.kind)
        if not outcome.error:
            outcome.error = result.failure.describe()
    return outcome


def _run_supervised(names: list[str], args, manifest: RunManifest,
                    failures: dict[str, str],
                    skipped: list[str]) -> None:
    """The worker-process path: the supervised runtime with heartbeat
    liveness, deadlines, supervisor-level deterministic retry, and the
    circuit breaker.  Workers fall back to the module REGISTRY (a
    monkeypatched registry of local functions would not survive
    pickling — same constraint the old pool had)."""
    specs = [
        TaskSpec(name=name, fn=run_task,
                 args=(name, args.seed, args.smoke, args.full, 0, args.out),
                 kwargs=dict(registry=None, trace=args.trace,
                             metrics=args.metrics, profile=args.profile,
                             trace_sample=args.trace_sample,
                             report=args.report))
        for name in names
    ]
    config = SupervisorConfig(
        max_workers=min(args.jobs, len(names)),
        seed=args.seed,
        deadline=args.timeout,
        heartbeat_timeout=args.heartbeat_timeout,
        retry=RetryPolicy(retries=args.retries),
        max_failures=args.max_failures,
    )
    supervisor = Supervisor(config)
    slot_of = {name: index for index, name in enumerate(names)}
    buffered: dict[int, TaskOutcome] = {}
    next_slot = 0

    def on_complete(result: TaskResult) -> None:
        """Checkpoint immediately; print in submission order."""
        nonlocal next_slot
        if result.failure is not None and result.failure.kind == "skipped":
            manifest.record_skipped(result.name, result.failure.message)
            manifest.save()
            skipped.append(result.name)
            print(f"[{result.name}: skipped ({result.failure.message})]",
                  file=sys.stderr)
            return
        outcome = _outcome_of(result)
        _record(outcome, manifest)
        buffered[slot_of[result.name]] = outcome
        while next_slot in buffered:
            _report(buffered.pop(next_slot), args.out, failures)
            next_slot += 1

    supervisor.run(specs,
                   result_failure=lambda outcome: outcome.failure,
                   on_complete=on_complete)
    # flush any outcomes stranded behind circuit-breaker skips
    for slot in sorted(buffered):
        _report(buffered.pop(slot), args.out, failures)


def _finalize_fleet(out: str, names: list[str]) -> None:
    """The post-batch fleet pass: build ``fleet_metrics.json``
    deterministically from the committed ``<name>.metrics.json`` files
    of ``names`` (sorted task order) — so serial, ``--jobs``, and
    ``--resume`` runs of one seed end byte-identical.  ``names`` must
    hold only tasks that completed or were verified-resumed in this
    invocation: a failed task's metrics file is a stale earlier run's."""
    result = write_fleet_artifacts(out, names)
    if result is None:
        print("[fleet: no per-task metrics found; nothing to merge]",
              file=sys.stderr)
        return
    wrote = ", ".join(path.name for path in result["paths"])
    print(f"[fleet: merged {len(result['tasks'])} task(s) -> {wrote}]",
          file=sys.stderr)


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
    parser.add_argument("--retries", type=int, default=0,
                        help="re-attempts per failed experiment before "
                             "it is recorded as failed; supervised runs "
                             "respawn the worker after a deterministic "
                             "backoff (default: 0)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes; results are "
                             "byte-identical to a serial run (default: 1)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-experiment wall-clock deadline; an "
                             "overrunning worker is killed and the "
                             "experiment classified as a timeout "
                             "(forces supervised workers, docs/RUNTIME.md)")
    parser.add_argument("--heartbeat-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="kill a worker whose heartbeat goes silent "
                             "for this long — catches hung tasks well "
                             "before --timeout (forces supervised "
                             "workers)")
    parser.add_argument("--max-failures", type=int, default=None,
                        metavar="N",
                        help="circuit breaker: after N experiments fail "
                             "permanently, skip the rest and report a "
                             "partial batch")
    parser.add_argument("--resume", action="store_true",
                        help="skip experiments already checkpointed "
                             "complete in <out>/run_manifest.json with "
                             "verified output digests")
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
    parser.add_argument("--fleet-metrics", action="store_true",
                        help="after the batch, merge the metrics of "
                             "every experiment that completed into a "
                             "deterministic fleet_metrics.json "
                             "(implies --metrics)")
    parser.add_argument("--report", action="store_true",
                        help="render each experiment's artifacts to a "
                             "deterministic <name>.report.md "
                             "(python -m repro.obs report)")
    parser.add_argument("--profile", action="store_true",
                        help="wrap each experiment in cProfile and write "
                             "<name>.prof.txt (wall-clock profiling; "
                             "results are unaffected)")
    args = parser.parse_args(argv)
    if args.retries < 0:
        parser.error("--retries must be non-negative")
    if args.jobs < 1:
        parser.error("--jobs must be positive")
    if args.trace_sample < 1:
        parser.error("--trace-sample must be a positive integer")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be positive")
    if args.heartbeat_timeout is not None and args.heartbeat_timeout <= 0:
        parser.error("--heartbeat-timeout must be positive")
    if args.max_failures is not None and args.max_failures < 1:
        parser.error("--max-failures must be >= 1")
    if args.trace_sample > 1:
        args.trace = True
    if args.fleet_metrics:
        args.metrics = True

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

    run_config = {
        "seed": args.seed, "smoke": args.smoke, "full": args.full,
        "trace": args.trace, "trace_sample": args.trace_sample,
        "metrics": args.metrics, "profile": args.profile,
        "report": args.report, "fleet_metrics": args.fleet_metrics,
    }
    try:
        manifest = RunManifest.open(args.out, run_config,
                                    resume=args.resume)
    except ManifestConfigMismatch as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    total = len(names)
    all_names = list(names)
    if args.resume:
        resumed = [n for n in names if manifest.can_skip(n)]
        if resumed:
            names = [n for n in names if n not in set(resumed)]
            for name in resumed:
                print(f"[{name}: already complete; skipped (--resume)]")

    failures: dict[str, str] = {}
    skipped: list[str] = []
    supervised = (args.jobs > 1 and len(names) > 1) \
        or args.timeout is not None or args.heartbeat_timeout is not None
    if names and not supervised:
        _run_serial(names, args, manifest, failures, skipped)
    elif names:
        _run_supervised(names, args, manifest, failures, skipped)

    if args.fleet_metrics:
        merged = [name for name in all_names
                  if name not in failures and name not in skipped]
        _finalize_fleet(args.out, merged)

    if failures or skipped:
        completed = total - len(failures) - len(skipped)
        print(f"{len(failures)} of {total} experiments failed "
              f"({completed} completed): {', '.join(failures)}",
              file=sys.stderr)
        if skipped:
            print(f"{len(skipped)} skipped by the --max-failures circuit "
                  f"breaker: {', '.join(skipped)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
