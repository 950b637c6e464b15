#!/usr/bin/env python3
"""Simulator throughput benchmarks with a machine-readable report and a
regression gate.

Times six hot paths (event-kernel dispatch, end-to-end message
throughput, the million-message batched drain, translation-unit
admission, snoop-trace synthesis, and one Figure 13 minibatch through
the classifier's convolutions) with min-of-N wall-clock loops,
writes ``BENCH_simulator.json`` and compares against the committed
baseline::

    python tools/bench_gate.py                    # bench + gate
    python tools/bench_gate.py --no-gate          # emit JSON only
    python tools/bench_gate.py --update-baseline  # refresh the baseline

The gate FAILS when any bench in ``GATED_BENCHES`` (kernel dispatch,
both end-to-end scenarios, translation admission, trace synthesis)
drops more than
``--tolerance`` (default 20 %) below the baseline's ops/s; the rest
are advisory (printed, never fatal).  The baseline records
which kernel engine produced it — when the current engine differs
(e.g. the C accelerator is not built here), rates are not comparable
and the gate is skipped with a notice.

A second, baseline-free gate budgets the observability layer
(``repro.obs``): dispatch on the shipped :class:`Simulator` with no
obs session installed is timed against an obs-free build of the same
facade over the same engine core, interleaved on the same machine,
and FAILS when the disabled-path overhead exceeds ``--obs-tolerance``
(default 2 %).  The tracing-enabled rate is reported as advisory
context (tracing is expected to cost real time; only the *off* switch
must be free).  A third baseline-free gate budgets the supervised
experiment runtime (:mod:`repro.runtime`) at ``--runtime-tolerance``
(default 2 %) over the bare spawn pool it replaced on the
``--jobs`` path.  Baselines are machine-relative
and should be *conservative floors* — the worst min a healthy build
produces on that machine, not a lucky quiet-box run — or the gate
flaps on load noise.  Refresh with ``--update-baseline`` when the
benchmarking hardware changes.

The full pytest-benchmark variants live in
``benchmarks/bench_simulator_throughput.py``; this script keeps the
gate dependency-free and fast enough to run on every check.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))  # for the benchmarks package

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402
from repro.host import Cluster  # noqa: E402
from repro.ml import Conv1d, ResNet1d  # noqa: E402
from repro.rnic import TranslationUnit, cx5  # noqa: E402
from repro.side.snoop import SnoopConfig, TraceSynthesizer  # noqa: E402
from repro.sim import KERNEL_ENGINE, Simulator  # noqa: E402
from repro.sim.kernel import _CORE  # noqa: E402
from repro.sim.random import RandomStreams  # noqa: E402

DEFAULT_BASELINE = REPO / "benchmarks" / "baselines" / "BENCH_simulator.json"
DEFAULT_OUT = REPO / "BENCH_simulator.json"
#: The blocking benches — the rest are advisory context.
GATED_BENCHES = frozenset({
    "kernel_dispatch",
    "end_to_end_messages",
    "end_to_end_batched",
    "translation_admission",
    "trace_synthesis_points",
})

#: Rates (ops/s) measured at the commit before the fast-path rework, on
#: the machine that produced the committed baseline — the start of the
#: bench trajectory.  Reports carry ``speedup_vs_pre_pr`` so the
#: headline factors stay visible as the baseline moves.  The batched
#: scenario did not exist pre-rework; it anchors to the same per-message
#: rate the scalar pipelined loop produced (msgs/s either way).
PRE_PR_OPS_PER_S = {
    "kernel_dispatch": 1_453_000,        # 10k events in 6.88 ms, pure Python
    "end_to_end_messages": 9_570,        # 2000 reads in 208.9 ms
    "end_to_end_batched": 9_570,         # scalar pipelined msgs/s anchor
    "translation_admission": 146_200,    # 5000 admits in 34.2 ms
    "trace_synthesis_points": 14_700,    # one 257-point trace in 17.5 ms
    "conv1d_train_step": 830,            # einsum Conv1d: 64 traces in 77.0 ms
}


def _min_seconds(run, repeats: int) -> float:
    run()  # warm caches, buffers, and lazy imports outside the timing
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def bench_kernel_dispatch() -> tuple[int, float]:
    events = 10_000

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < events:
                sim.schedule(10.0, tick)

        sim.schedule(0.0, tick)
        sim.run()
        assert count[0] == events

    # the gated bench gets extra repeats: its ~1 ms runtime makes the
    # min jittery on busy machines, and a flapping gate is useless
    return events, _min_seconds(run, repeats=15)


def _barrier_testbed(max_send_wr: int):
    """Two-host CX-5 testbed for the barrier-shaped end-to-end benches."""
    cluster = Cluster(seed=0)
    server = cluster.add_host("server", spec=cx5())
    client = cluster.add_host("client", spec=cx5())
    conn = cluster.connect(client, server, max_send_wr=max_send_wr,
                           cq_capacity=max_send_wr + 8)
    mr = server.reg_mr(2 * 1024 * 1024)
    return cluster, conn, mr


def bench_end_to_end() -> tuple[int, float]:
    """End-to-end message throughput, barrier-batched ingress.

    Posts 256-deep doorbell cohorts of 64 B READs (every WQE signaled),
    runs the simulation to the drain barrier and polls the cohort's
    CQEs in one call — the post/drain/repeat shape the descriptor fast
    path plans for, and the linked-list ``ibv_post_send`` form real
    message-rate benchmarks use.
    """
    batch, rounds = 256, 80
    messages = batch * rounds
    cluster, conn, mr = _barrier_testbed(batch)
    offsets = [(i * 64) % (2 * 1024 * 1024 - 64) for i in range(batch)]
    sim = cluster.sim
    cq = conn.cq

    def run():
        for _ in range(rounds):
            conn.post_read_batch(mr, offsets)
            sim.run()
            got = len(cq.poll(batch))
            assert got == batch

    # gated bench: extra repeats so one noisy ~110 ms pass (frequency
    # scaling, a neighbouring container) cannot flap the gate
    return messages, _min_seconds(run, repeats=7)


def bench_end_to_end_batched() -> tuple[int, float]:
    """A million messages through the full pipeline, timed in one pass.

    Same barrier shape as :func:`bench_end_to_end` plus selective
    signaling (a CQE every 16th WQE, the standard message-rate recipe):
    unsignaled completions ride the next signaled event, so the kernel
    dispatches ~16x fewer events per cohort while every WQE still
    retires at its scalar timestamp.  At 1M messages a single timed
    pass (after a two-cohort warm-up) is stable enough; min-of-N would
    double a multi-second bench for little variance reduction.
    """
    batch, rounds, sig = 256, 4000, 16
    messages = batch * rounds
    cluster, conn, mr = _barrier_testbed(batch)
    offsets = [(i * 64) % (2 * 1024 * 1024 - 64) for i in range(batch)]
    nsig = sum(1 for i in range(batch) if i % sig == 0 or i == batch - 1)
    sim = cluster.sim
    cq = conn.cq

    def one_round():
        conn.post_read_batch(mr, offsets, signal_every=sig)
        sim.run()
        got = len(cq.poll(nsig))
        assert got == nsig

    for _ in range(2):
        one_round()
    started = time.perf_counter()
    for _ in range(rounds):
        one_round()
    return messages, time.perf_counter() - started


def bench_translation_admission() -> tuple[int, float]:
    admissions = 5000
    unit = TranslationUnit(cx5(), rng=np.random.default_rng(0))

    def run():
        now = 0.0
        for i in range(admissions):
            now, _ = unit.admit(now, "mr", (i * 192) % (1 << 20), 64)

    return admissions, _min_seconds(run, repeats=5)


def bench_trace_synthesis() -> tuple[int, float]:
    synthesizer = TraceSynthesizer(
        config=SnoopConfig(probes_per_point=5), seed=0
    )
    points = len(synthesizer.config.observation_offsets)

    def run():
        trace = synthesizer.trace(512)
        assert trace.shape == (points,)

    return points, _min_seconds(run, repeats=5)


def bench_conv1d_train_step() -> tuple[int, float]:
    """Forward and backward through every ``Conv1d`` of the Figure 13
    ResNet (``evaluate_classifier``'s configuration) at its training
    minibatch shape: 64 traces of 257 points, in the model's own
    dtype (float32) like the training loop."""
    model = ResNet1d(in_channels=1, num_classes=17, input_length=257,
                     stage_channels=(16, 32), blocks_per_stage=1, seed=0)
    rng = np.random.default_rng(0)
    model.forward(rng.normal(size=(64, 1, 257)))  # records input shapes
    convs = list(dict.fromkeys(owner for owner, _ in model.parameters()
                               if isinstance(owner, Conv1d)))
    dtype = convs[0].params["w"].dtype
    inputs = [rng.normal(size=conv._cache[0]).astype(dtype)
              for conv in convs]
    grads = [rng.normal(size=conv.forward(x).shape).astype(dtype)
             for conv, x in zip(convs, inputs)]

    def run():
        for conv, x, grad in zip(convs, inputs, grads):
            conv.forward(x)
            conv.backward(grad)

    return 64, _min_seconds(run, repeats=10)


BENCHES = {
    "kernel_dispatch": bench_kernel_dispatch,
    "end_to_end_messages": bench_end_to_end,
    "end_to_end_batched": bench_end_to_end_batched,
    "translation_admission": bench_translation_admission,
    "trace_synthesis_points": bench_trace_synthesis,
    "conv1d_train_step": bench_conv1d_train_step,
}


# ----------------------------------------------------------------------
# Observability overhead (baseline-free, paired on this machine)
# ----------------------------------------------------------------------
OBS_EVENTS = 50_000


def _dispatch_workload(sim_factory):
    """The kernel_dispatch tick chain, parameterised over what builds
    the simulator, sized up so a 2 % budget is resolvable above timer
    jitter."""
    def run():
        sim = sim_factory()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < OBS_EVENTS:
                sim.schedule(10.0, tick)

        sim.schedule(0.0, tick)
        sim.run()
        assert count[0] == OBS_EVENTS

    return run


def _paired_min_seconds(run_a, run_b, repeats: int) -> tuple[float, float]:
    """Min-of-N for two workloads with strictly interleaved timing, so
    clock-frequency drift and cache pressure hit both sides equally."""
    run_a()
    run_b()
    best_a = best_b = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run_a()
        best_a = min(best_a, time.perf_counter() - started)
        started = time.perf_counter()
        run_b()
        best_b = min(best_b, time.perf_counter() - started)
    return best_a, best_b


class _PreObsSimulator(_CORE):
    """The Simulator facade as it stood before repro.obs existed: same
    engine core, same Python-subclass method-lookup cost, seeded
    streams — but no dispatch-hook plumbing and no session
    self-registration.  Comparing against the bare core instead would
    blame the (pre-existing, ~20 %) heap-subclass tax on obs."""

    __slots__ = ("random", "_trace")

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.random = RandomStreams(seed)
        self._trace = None


def bench_obs_overhead() -> dict:
    """Measure the repro.obs tax on event dispatch.

    * ``disabled`` — the shipped :class:`Simulator` with no obs session
      installed: the production default every experiment runs under.
    * ``reference`` — :class:`_PreObsSimulator`: what dispatch would
      cost if the observability layer did not exist.
    * ``tracing`` — a full ``trace=True`` session recording every
      dispatch (advisory; expected to be slower).
    * ``sampling`` — a ``trace_sample_rate=100`` session recording
      1-in-100 dispatches (advisory; the cheap way to trace long runs).
    """
    obs.uninstall()  # belt and braces: measure the true disabled path
    # 40 interleaved repeats: the two sides differ by ~1 ms of hook
    # plumbing per pass, so the min needs a deep sample before the
    # measured overhead settles inside the 2 % budget's noise floor
    disabled_s, reference_s = _paired_min_seconds(
        _dispatch_workload(Simulator), _dispatch_workload(_PreObsSimulator),
        repeats=40)

    def traced():
        obs.install(trace=True, max_events=OBS_EVENTS + 16)
        try:
            _dispatch_workload(Simulator)()
        finally:
            obs.uninstall()

    sampling_rate = 100

    def sampled():
        obs.install(trace=True, max_events=OBS_EVENTS + 16,
                    trace_sample_rate=sampling_rate)
        try:
            _dispatch_workload(Simulator)()
        finally:
            obs.uninstall()

    tracing_s = _min_seconds(traced, repeats=3)
    sampling_s = _min_seconds(sampled, repeats=3)
    overhead = max(0.0, disabled_s / reference_s - 1.0)
    return {
        "events": OBS_EVENTS,
        "reference_ops_per_s": round(OBS_EVENTS / reference_s, 1),
        "disabled_ops_per_s": round(OBS_EVENTS / disabled_s, 1),
        "disabled_overhead": round(overhead, 4),
        "tracing_ops_per_s": round(OBS_EVENTS / tracing_s, 1),
        "tracing_slowdown": round(tracing_s / disabled_s, 2),
        "sampling_rate": sampling_rate,
        "sampling_ops_per_s": round(OBS_EVENTS / sampling_s, 1),
        "sampling_slowdown": round(sampling_s / disabled_s, 2),
    }


def obs_gate(report: dict, tolerance: float) -> int:
    """Fail when the tracing-*disabled* dispatch overhead exceeds the
    budget.  Baseline-free: both sides ran interleaved on this machine,
    so no committed reference or engine check is needed."""
    section = report["obs"]
    overhead = section["disabled_overhead"]
    verdict = "ok" if overhead <= tolerance else "FAIL"
    print(f"  obs disabled-path overhead: {overhead:.2%} "
          f"({section['disabled_ops_per_s']:,.0f} vs obs-free facade "
          f"{section['reference_ops_per_s']:,.0f} ops/s) "
          f"[budget {tolerance:.0%}: {verdict}]")
    print(f"  obs tracing-enabled (advisory): "
          f"{section['tracing_ops_per_s']:,.0f} ops/s "
          f"({section['tracing_slowdown']:.2f}x disabled)")
    print(f"  obs sampled 1-in-{section['sampling_rate']} (advisory): "
          f"{section['sampling_ops_per_s']:,.0f} ops/s "
          f"({section['sampling_slowdown']:.2f}x disabled)")
    if verdict == "FAIL":
        print(f"bench_gate: repro.obs costs more than {tolerance:.0%} "
              f"on event dispatch with tracing disabled")
        return 1
    return 0


# ----------------------------------------------------------------------
# Supervised-runtime overhead (baseline-free, paired on this machine)
# ----------------------------------------------------------------------
def bench_runtime_overhead() -> dict:
    """Time the supervised runtime against the bare spawn pool it
    replaced on the experiments ``--jobs`` path.

    Runs :mod:`repro.runtime.bench` as a subprocess so the spawn
    children re-import that light module rather than this script (which
    would drag numpy and the whole simulator into every worker and
    swamp the measurement with import time).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    output = subprocess.run(
        [sys.executable, "-m", "repro.runtime.bench"],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    ).stdout
    return json.loads(output)


def runtime_gate(report: dict, tolerance: float) -> int:
    """Fail when the supervisor costs more than the budget over the
    bare pool.  Baseline-free: both sides ran interleaved in the same
    subprocess, so no committed reference is needed."""
    section = report["runtime"]
    overhead = section["overhead"]
    verdict = "ok" if overhead <= tolerance else "FAIL"
    print(f"  supervised-runtime overhead: {overhead:.2%} "
          f"({section['supervised_s'] * 1e3:,.0f} ms vs bare pool "
          f"{section['bare_pool_s'] * 1e3:,.0f} ms, "
          f"{section['tasks']} tasks / {section['jobs']} jobs) "
          f"[budget {tolerance:.0%}: {verdict}]")
    if verdict == "FAIL":
        print(f"bench_gate: the supervised runtime costs more than "
              f"{tolerance:.0%} over the bare process pool")
        return 1
    return 0


def run_benches() -> dict:
    report = {"engine": KERNEL_ENGINE, "benches": {}}
    for name, bench in BENCHES.items():
        ops, seconds = bench()
        rate = ops / seconds
        report["benches"][name] = {
            "ops": ops,
            "seconds": round(seconds, 6),
            "ops_per_s": round(rate, 1),
            "speedup_vs_pre_pr": round(rate / PRE_PR_OPS_PER_S[name], 2),
        }
        print(f"  {name}: {ops} ops in {seconds * 1e3:.2f} ms "
              f"({rate:,.0f} ops/s, {rate / PRE_PR_OPS_PER_S[name]:.1f}x "
              f"pre-rework)")
    report["obs"] = bench_obs_overhead()
    report["runtime"] = bench_runtime_overhead()
    return report


def gate(report: dict, baseline_path: pathlib.Path, tolerance: float) -> int:
    if not baseline_path.exists():
        print(f"bench_gate: no baseline at {baseline_path}; gate skipped "
              f"(create one with --update-baseline)")
        return 0
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("engine") != report["engine"]:
        print(f"bench_gate: engine mismatch (baseline "
              f"{baseline.get('engine')!r}, current {report['engine']!r}); "
              f"rates not comparable, gate skipped")
        return 0
    status = 0
    for name, current in report["benches"].items():
        reference = baseline.get("benches", {}).get(name)
        if reference is None:
            continue
        ratio = current["ops_per_s"] / reference["ops_per_s"]
        verdict = "ok"
        if ratio < 1.0 - tolerance:
            if name in GATED_BENCHES:
                verdict = "FAIL"
                status = 1
            else:
                verdict = "slow (advisory)"
        print(f"  {name}: {ratio:.2f}x of baseline "
              f"({current['ops_per_s']:,.0f} vs {reference['ops_per_s']:,.0f}"
              f" ops/s) [{verdict}]")
    if status:
        print(f"bench_gate: a gated bench regressed more than "
              f"{tolerance:.0%} below the committed baseline")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help="where to write the JSON report")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional dispatch-rate drop "
                             "(default: 0.20)")
    parser.add_argument("--obs-tolerance", type=float, default=0.02,
                        help="allowed tracing-disabled observability "
                             "overhead on event dispatch (default: 0.02)")
    parser.add_argument("--runtime-tolerance", type=float, default=0.02,
                        help="allowed supervised-runtime overhead over "
                             "the bare process pool on the --jobs path "
                             "(default: 0.02)")
    parser.add_argument("--no-gate", action="store_true",
                        help="emit the report without comparing")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write the report as the new baseline")
    parser.add_argument("--history-dir", type=pathlib.Path,
                        default=REPO / "benchmarks" / "history",
                        help="where --run-id archives reports "
                             "(default: benchmarks/history)")
    parser.add_argument("--run-id", default=None,
                        help="archive the report as "
                             "<history-dir>/<run-id>.json; pass a "
                             "caller-generated timestamp (the benches "
                             "themselves never read the wall clock). "
                             "python -m repro.obs report --history "
                             "renders trend lines from the two most "
                             "recent archives")
    args = parser.parse_args(argv)
    if args.run_id is not None and (
            "/" in args.run_id or not args.run_id.strip()):
        parser.error("--run-id must be a non-empty file-name fragment")
    if not 0.0 < args.tolerance < 1.0:
        parser.error("--tolerance must be in (0, 1)")
    if not 0.0 < args.obs_tolerance < 1.0:
        parser.error("--obs-tolerance must be in (0, 1)")
    if not 0.0 < args.runtime_tolerance < 1.0:
        parser.error("--runtime-tolerance must be in (0, 1)")

    print(f"bench_gate: engine={KERNEL_ENGINE}")
    report = run_benches()
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"bench_gate: wrote {args.out}")
    if args.run_id is not None:
        args.history_dir.mkdir(parents=True, exist_ok=True)
        archive = args.history_dir / f"{args.run_id}.json"
        archive.write_text(json.dumps(report, indent=2) + "\n")
        print(f"bench_gate: archived {archive}")
    if args.update_baseline:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(report, indent=2) + "\n")
        print(f"bench_gate: baseline updated at {args.baseline}")
        return 0
    if args.no_gate:
        return 0
    status = gate(report, args.baseline, args.tolerance)
    return (status | obs_gate(report, args.obs_tolerance)
            | runtime_gate(report, args.runtime_tolerance))


if __name__ == "__main__":
    sys.exit(main())
