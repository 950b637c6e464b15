"""Paper-artifact benchmark: regenerate the paper's artifacts, time them
end to end (tracing off) or per layer (tracing on), and check every
output against the recorded reference.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload covert-sweep --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload fig13-snoop --seed 1 --seconds 60 --trace 1
    python3 perfbench/run.py --record-reference --workload covert-sweep
    python3 perfbench/run.py --compare parent.out change.out

Each repetition runs in a fresh interpreter (``worker.py``) with
BLAS/OpenMP pinned to one thread and regenerates every artifact of the
workload once.  A run makes one repetition, and another only while one
as long as the last still ends within ``--seconds``.  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it (``perfbench-settings {...}``) records the code paths the run
took.
See README.md for the workloads, metrics and first numbers.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP threads for every repetition (a fixed count <= nproc),
#: set before anything imports numpy.
PIN_THREADS = "1"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _key in THREAD_ENV:
    os.environ[_key] = PIN_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.digest import summaries_agree  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ACCURACY_TOLERANCE,
    CORPUS,
    SWEEP,
    VERBS,
    WORKLOADS,
    input_seed,
)

WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
#: Set-up samples per untraced run (repetitions plus set-up-only probes).
SETUP_SAMPLES = 5
#: A whole run must end well inside 180 s; no repetition may outlive it.
RUN_BUDGET_S = 170.0
SETTINGS_TAG = "perfbench-settings"
#: Settings that can change float results bit for bit (numpy's SIMD
#: kernels, OpenBLAS's kernels and libm are chosen per CPU and build).
#: Float outputs are compared byte-exact only on the platform that
#: recorded the reference, and within a tolerance elsewhere.
PLATFORM_KEYS = ("machine", "libc", "cpu_features", "numpy")

ALL_EXPERIMENTS = SWEEP + ("fig13", "faults")
#: What reference.json keeps per artifact and corpus input.
REFERENCE_KEYS = ("digest", "float_digest", "float_summary", "accuracy")


class RepetitionError(RuntimeError):
    pass


def spawn(workload: str, seed: int, trace: bool = False,
          setup_only: bool = False, deadline: float = 0.0) -> dict:
    """Run one repetition in a fresh interpreter; returns its record."""
    command = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(seed)]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic()) if deadline else None
    spawned = time.monotonic()
    command += ["--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise RepetitionError(f"{workload} repetition timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RepetitionError(
            f"{workload} repetition exited {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())


def platform_of(settings: dict) -> dict:
    return {key: settings.get(key) for key in PLATFORM_KEYS}


def check_artifacts(workload: str, seed: int, record: dict,
                    reference: dict,
                    exact: bool = True) -> list[tuple[str, str]]:
    """``(artifact, problem)`` pairs for one repetition: crashes, failed
    checks, and any mismatch with the reference recorded for its input.

    The platform-independent digest and the fig13 accuracies are always
    compared; the floats bit for bit when ``exact``, else through their
    summary within :data:`~perfbench.digest.FLOAT_RTOL`."""
    expected = reference.get(workload, {}).get(str(input_seed(seed)), {})
    problems = []
    for artifact in record["artifacts"]:
        name = artifact["name"]
        if not artifact["ok"]:
            problems.append((name, artifact["error"]))
            continue
        ref = expected.get(name)
        if ref is None:
            problems.append((name, f"no reference for input "
                                   f"{input_seed(seed)}"))
            continue
        if artifact["digest"] != ref["digest"]:
            problems.append((name, "output differs from the reference"))
        elif exact and artifact["float_digest"] != ref["float_digest"]:
            problems.append((name, "float output differs from the "
                                   "reference"))
        elif not exact and not summaries_agree(artifact["float_summary"],
                                               ref["float_summary"]):
            problems.append((name, "float output outside the reference's "
                                   "tolerance"))
        for field, want in ref.get("accuracy", {}).items():
            got = artifact.get("accuracy", {}).get(field)
            if got is None or abs(got - want) > ACCURACY_TOLERANCE:
                problems.append((name, f"{field} {got} vs reference {want} "
                                       f"(tolerance {ACCURACY_TOLERANCE})"))
    return problems


def count_ops(record: dict,
              problems: list[tuple[str, str]]) -> tuple[int, int]:
    """(attempted, failed) operations of one repetition: one per
    artifact, or one per cohort of the verbs artifact."""
    bad = {name for name, _ in problems}
    attempted = failed = 0
    for artifact in record["artifacts"]:
        attempted += artifact.get("ops", 1)
        if artifact["name"] in bad:
            failed += artifact.get("failed_ops") or 1
    return attempted, failed


def rep_wall(record: dict) -> float:
    """Host seconds to regenerate the repetition's artifacts."""
    return sum(a["wall_s"] for a in record["artifacts"])


def msgs_per_s(record: dict) -> float:
    """Completed WQEs over host seconds: every WQE the verbs artifact
    posted, and request packets minus retransmissions of the
    experiments (deterministic for a given input)."""
    wqes = sum(a.get("wqes", a["counters"].get("nic.requests", 0)
                     - a["counters"].get("nic.retransmits", 0))
               for a in record["artifacts"])
    return wqes / rep_wall(record)


def summed_counters(record: dict) -> dict:
    out: dict = {}
    for artifact in record["artifacts"]:
        for key, value in artifact["counters"].items():
            out[key] = out.get(key, 0) + value
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# The untraced (end-to-end) and traced (per-layer) runs
# ----------------------------------------------------------------------
def run_untraced(workload: str, seed: int, seconds: float,
                 reference: dict, deadline: float) -> tuple:
    started = time.monotonic()
    reps = []
    while True:
        rep_started = time.monotonic()
        reps.append(spawn(workload, seed, deadline=deadline))
        now = time.monotonic()
        # another repetition as long as this one must end in time
        if 2 * now - rep_started > started + seconds:
            break
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, setup_only=True,
                            deadline=deadline)["setup_s"])
    problems, attempted, failed = verify(workload, seed, reps, reference)
    wall = statistics.median(rep_wall(rep) for rep in reps)
    metrics = {
        "wall_s": metric(wall, "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(
            rep["peak_rss_mb"] for rep in reps), "MB"),
        "msgs_per_s": metric(statistics.median(
            msgs_per_s(rep) for rep in reps), "1/s"),
    }
    return reps, problems, attempted, failed, metrics


def run_traced(workload: str, seed: int, seconds: float,
               reference: dict, deadline: float) -> tuple:
    plain = spawn(workload, seed, deadline=deadline)
    traced = spawn(workload, seed, trace=True, deadline=deadline)
    reps = [plain, traced]
    problems, attempted, failed = verify(workload, seed, reps, reference)
    spans = traced["spans"]
    if VERBS in WORKLOADS[workload] and \
            spans.get("rnic.batch.plan:fast", {}).get("calls", 0) == 0:
        problems.append("traced verbs cohorts took no batched fast path")
    metrics = layer_metrics(plain, traced)
    return reps, problems, attempted, failed, metrics


def verify(workload: str, seed: int, reps: list, reference: dict) -> tuple:
    """Check every repetition; returns (problems, attempted, failed).

    All repetitions of a run must produce identical outputs, and each
    must match the reference (see :func:`check_artifacts`); float
    outputs byte for byte only when the run's platform is the one the
    reference was recorded on, and stderr says when they are not."""
    exact = reference.get("platform") == platform_of(reps[0]["settings"])
    if not exact:
        print("perfbench: reference recorded on another platform; float "
              "outputs are checked within tolerance, not byte-exact",
              file=sys.stderr)

    def outputs(artifact: dict) -> tuple:
        return (artifact.get("digest"), artifact.get("float_digest"),
                artifact.get("accuracy"))

    first = {a["name"]: outputs(a) for a in reps[0]["artifacts"]}
    problems = []
    attempted = failed = 0
    for rep in reps:
        found = check_artifacts(workload, seed, rep, reference, exact)
        found.extend(
            (a["name"], "output differs from the first repetition's")
            for a in rep["artifacts"]
            if first.get(a["name"]) != outputs(a))
        ops, bad = count_ops(rep, found)
        attempted += ops
        failed += bad
        problems.extend(f"{name}: {problem}" for name, problem in found)
        if rep["settings"] != reps[0]["settings"]:
            problems.append("repetitions ran with different settings")
    return problems, attempted, failed


def layer_metrics(plain: dict, traced: dict) -> dict:
    """Every per-layer metric (0 where the workload does not reach the
    layer), from the traced repetition unless noted."""
    spans = traced["spans"]

    def span(name: str, field: str = "total_s") -> float:
        return spans.get(name, {}).get(field, 0)

    out = {}
    walls = {a["name"]: a["wall_s"] for a in traced["artifacts"]}
    for name in ALL_EXPERIMENTS:
        out[f"experiments.{name}.wall_s"] = metric(walls.get(name, 0.0), "s")
    out["experiments.self_s"] = metric(sum(
        span(f"experiments.{name}", "self_s") for name in ALL_EXPERIMENTS),
        "s")
    traces = span("side.synth", "calls")
    points = span("side.synth", "units")
    out.update({
        "side.synth.wall_s": metric(span("side.synth"), "s"),
        "side.synth.traces": metric(traces, "count"),
        "side.synth.us_per_point": metric(
            1e6 * span("side.synth") / points if points else 0.0,
            "us/point"),
        "side.capture.wall_s": metric(span("side.capture"), "s"),
        "ml.fit.wall_s": metric(span("ml.fit"), "s"),
        "ml.fit.self_s": metric(span("ml.fit", "self_s"), "s"),
        "ml.predict.wall_s": metric(span("ml.predict"), "s"),
        "ml.conv1d.forward_s": metric(span("ml.conv1d.forward"), "s"),
        "ml.conv1d.backward_s": metric(span("ml.conv1d.backward"), "s"),
        "ml.conv1d.calls": metric(span("ml.conv1d.forward", "calls")
                                  + span("ml.conv1d.backward", "calls"),
                                  "count"),
        "ml.adam.step_s": metric(span("ml.adam.step"), "s"),
    })
    counters = summed_counters(traced)
    out.update({
        "rnic.translation.requests": metric(
            counters.get("translation.requests", 0), "count"),
        "rnic.translation.bank_wait_ns": metric(
            counters.get("translation.bank_wait_ns", 0), "ns"),
        "rnic.translation.segment_misses": metric(
            counters.get("translation.segment_misses", 0), "count"),
    })
    events = traced["sim"]["events"]
    out.update({
        "sim.events": metric(events, "count"),
        "sim.simulators": metric(traced["sim"]["simulators"], "count"),
        # untraced host time over the (identical) simulated event count
        "sim.host_ns_per_event": metric(
            1e9 * rep_wall(plain) / events if events else 0.0,
            "ns/event"),
        "verbs.post.calls": metric(span("verbs.post", "calls"), "count"),
        "verbs.post.wall_s": metric(span("verbs.post"), "s"),
        "verbs.await.wall_s": metric(span("verbs.await"), "s"),
        "covert.transmit.wall_s": metric(span("covert.transmit"), "s"),
        "covert.transmit.self_s": metric(
            span("covert.transmit", "self_s"), "s"),
        "covert.bits": metric(span("covert.transmit", "units"), "count"),
        "defense.ingest_s": metric(span("defense.ingest"), "s"),
        "defense.samples": metric(span("defense.ingest", "units"), "count"),
        "rnic.batch.cohorts": metric(span("rnic.batch.plan", "calls"),
                                     "count"),
        "rnic.batch.fast": metric(span("rnic.batch.plan:fast", "calls"),
                                  "count"),
        "rnic.batch.fallback": metric(
            span("rnic.batch.plan:fallback", "calls"), "count"),
        "rnic.batch.plan_s": metric(span("rnic.batch.plan"), "s"),
    })
    cohorts = [s for a in traced["artifacts"]
               for s in a.get("cohort_s", ())] or [0.0]
    out["verbs.cohort_p50_us"] = metric(1e6 * percentile(cohorts, 50), "us")
    out["verbs.cohort_p99_us"] = metric(1e6 * percentile(cohorts, 99), "us")
    for key in ("tx_packets", "retransmits", "timeouts", "rnr_naks",
                "flushed_wqes", "pause_events"):
        out[f"rnic.nic.{key}"] = metric(counters.get(f"nic.{key}", 0),
                                        "count")
    out["setup.import_s"] = metric(plain["import_s"], "s")
    out["setup.build_s"] = metric(plain["build_s"], "s")
    out["trace.overhead_s"] = metric(
        rep_wall(traced) - rep_wall(plain), "s")
    return out


# ----------------------------------------------------------------------
# Reference recording and run comparison
# ----------------------------------------------------------------------
def record_reference(workload: str) -> int:
    """Record the output digests of every corpus input of ``workload``."""
    reference = load_reference()
    reference["corpus"] = CORPUS
    table = reference[workload] = {}
    for seed in range(CORPUS):
        record = spawn(workload, seed)
        here = platform_of(record["settings"])
        if reference.setdefault("platform", here) != here:
            print("reference.json was recorded on another platform; "
                  "remove it and record every workload again",
                  file=sys.stderr)
            return 1
        bad = [a for a in record["artifacts"] if not a["ok"]]
        if bad:
            print(f"seed {seed}: {bad[0]['name']}: {bad[0]['error']}",
                  file=sys.stderr)
            return 1
        table[str(input_seed(seed))] = {
            a["name"]: {key: a[key] for key in REFERENCE_KEYS if key in a}
            for a in record["artifacts"]
        }
        print(f"{workload} input {input_seed(seed)}: recorded", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")
    return 0


def read_run(path: str) -> tuple[dict, dict]:
    settings: dict = {}
    result: dict = {}
    for line in pathlib.Path(path).read_text().splitlines():
        if line.startswith(SETTINGS_TAG):
            settings = json.loads(line[len(SETTINGS_TAG):])
        elif line.startswith("{"):
            result = json.loads(line)
    return settings, result


def compare(before: str, after: str) -> int:
    """Print metric ratios of two saved runs; refuse when the runs'
    settings (kernel core, batch switch, threads, ...) differ."""
    settings_a, result_a = read_run(before)
    settings_b, result_b = read_run(after)
    if not settings_a or settings_a != settings_b:
        diff = sorted(key for key in set(settings_a) | set(settings_b)
                      if settings_a.get(key) != settings_b.get(key))
        print(f"refusing to compare: settings differ in {diff}",
              file=sys.stderr)
        return 3
    for name, entry in result_a.get("metrics", {}).items():
        other = result_b.get("metrics", {}).get(name)
        if other is None:
            continue
        ratio = other["value"] / entry["value"] if entry["value"] else 0.0
        print(f"{name:36s} {entry['value']:>14.6g} {other['value']:>14.6g}"
              f" {entry['unit']:>9s}  x{ratio:.3f}")
    return 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="record the workload's output digests for "
                             "every corpus input")
    parser.add_argument("--compare", nargs=2, metavar="RUN_OUTPUT")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(args.workload)

    deadline = time.monotonic() + RUN_BUDGET_S
    reference = load_reference()
    try:
        # untimed warm-up: compiles bytecode and warms the page cache so
        # every measured set-up starts from the same state
        spawn(args.workload, args.seed, setup_only=True, deadline=deadline)
        runner = run_traced if args.trace else run_untraced
        reps, problems, attempted, failed, metrics = runner(
            args.workload, args.seed, args.seconds, reference, deadline)
    except RepetitionError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(SETTINGS_TAG + " " + json.dumps(reps[0]["settings"],
                                          sort_keys=True))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
