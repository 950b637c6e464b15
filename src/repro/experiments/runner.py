"""Experiment registry and the single-experiment task runner.

This module holds everything the command-line driver and its
``--jobs N`` processes share.  A spawn process unpickles
:func:`send_task`, which runs :func:`run_task`, and the runner it is
handed by qualified name, so all three must live in importable modules
(not in ``__main__``, which spawn re-imports under a different name).

Determinism contract: one experiment run in a fresh worker process must
produce byte-identical output to the same experiment run serially in a
long-lived process.  Everything that could break that is pinned
elsewhere in the repo — named :class:`~repro.sim.random.RandomStreams`
derive sequences from ``(seed, name)`` via SHA-256, and cache set
indices avoid Python's per-process randomized string ``hash()`` (see
:func:`repro.rnic.translation.mr_cache_id`).  The serial-vs-parallel
equivalence test in ``tests/experiments/test_parallel.py`` enforces the
contract.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import inspect
import io
import pstats
import traceback
from typing import Callable, Optional

from repro import obs
from repro.experiments import faults, fig4, fig5, fig12, fig13, mitigation
from repro.experiments import pythia_cmp, stealth, table1, table5, uli_linearity
from repro.experiments.fig6_7_8 import run_fig6, run_fig7, run_fig8
from repro.experiments.fig9_10_11 import run_fig9, run_fig10, run_fig11
from repro.experiments.timing import wallclock

#: Paper-scale parameter overrides used by ``--full``.  The defaults
#: trade some statistical weight for runtime; ``--full`` restores the
#: paper's magnitudes (e.g. Figure 13's dataset: 6,715 traces, the
#: balanced count nearest the paper's 6,720, which 17 does not divide).
FULL_SCALE: dict[str, dict] = {
    "table5": dict(payload_bits=1024),
    "fig5": dict(samples=400),
    "fig6": dict(samples=150),
    "fig7": dict(samples=150),
    "fig8": dict(samples=150),
    "fig13": dict(per_class=395, epochs=16),   # 17 * 395 = 6715 traces
    "pythia": dict(payload_bits=512),
    "linearity": dict(samples_per_depth=400),
}

REGISTRY: dict[str, Callable] = {
    "table1": table1.run,
    "table5": table5.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": fig12.run,
    "fig13": fig13.run,
    "pythia": pythia_cmp.run,
    "stealth": stealth.run,
    "linearity": uli_linearity.run,
    "mitigation-noise": mitigation.run_noise,
    "mitigation-partition": mitigation.run_partition,
    "faults": faults.run,
}


def _invoke(runner: Callable, seed: int, smoke: bool, kwargs: dict):
    """Call a runner with only the keyword arguments it accepts.

    Runners are plain functions with heterogeneous signatures (a few
    take no ``seed``; only some support ``smoke``), so the
    dispatch inspects the signature instead of guessing via TypeError.
    """
    params = inspect.signature(runner).parameters
    accepts_var_kw = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )
    call_kwargs = dict(kwargs)
    if accepts_var_kw or "seed" in params:
        call_kwargs["seed"] = seed
    if smoke and (accepts_var_kw or "smoke" in params):
        call_kwargs["smoke"] = True
    return runner(**call_kwargs)


@dataclasses.dataclass
class TaskOutcome:
    """What one experiment run produced, serial or in a --jobs process."""

    name: str
    table: Optional[str] = None      # rendered table (None on failure)
    path: Optional[str] = None       # where the table was saved
    error: str = ""                  # captured traceback on failure
    elapsed: float = 0.0
    #: Extra artifacts written next to the table (traces, metrics,
    #: profiles), as printable path strings.
    extras: list[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.table is not None


class _CollectorClock:
    """A ``gc.callbacks`` hook that counts the cyclic collector's runs
    per generation and their wall seconds.  cProfile smears collector
    time over whichever function triggers a collection, so the profile
    states it on a line of its own."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = wallclock()
        else:
            self.seconds += wallclock() - self._started
            self.collections[info["generation"]] += 1

    def summary(self) -> str:
        per_generation = ", ".join(
            f"gen{generation} {count}"
            for generation, count in enumerate(self.collections))
        return (f"cyclic gc: {sum(self.collections)} collections "
                f"({per_generation}), {self.seconds:.3f} s\n")


def _write_profile(profiler: cProfile.Profile, collector: _CollectorClock,
                   out: str, name: str) -> str:
    """Render a cProfile run to ``<out>/<name>.prof.txt`` (the
    collector line, then the cumulative top-40) and return the path."""
    import pathlib

    out_dir = pathlib.Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    buffer = io.StringIO()
    buffer.write(collector.summary())
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(40)
    path = out_dir / f"{name}.prof.txt"
    path.write_text(buffer.getvalue())
    return str(path)


def run_task(
    name: str,
    runner: Callable,
    seed: int,
    smoke: bool,
    full: bool,
    out: str,
    trace: bool = False,
    metrics: bool = False,
    profile: bool = False,
    trace_sample: int = 1,
) -> TaskOutcome:
    """Run one experiment end to end: invoke ``runner``, render, save.
    Printing is left to the caller so that parallel runs emit output in
    deterministic submission order.

    ``runner`` is the experiment's entry in the caller's registry; a
    ``--jobs`` process receives it pickled by qualified name.  A crash is
    captured as the outcome's ``error`` traceback instead of raised.

    ``trace``/``metrics`` install a fresh :mod:`repro.obs` session
    around the run and export ``<name>.trace.jsonl`` /
    ``<name>.trace.json`` / ``<name>.metrics.json`` next to the table;
    ``trace_sample=N`` records 1-in-N kernel dispatch events (exactly
    accounted — see :attr:`repro.obs.Tracer.sampled_out`) to keep
    long traced runs cheap; ``profile`` wraps the run in cProfile and
    a ``gc.callbacks`` collector clock and writes ``<name>.prof.txt``.
    """
    kwargs = dict(FULL_SCALE.get(name, {})) if full else {}
    started = wallclock()
    extras: list[str] = []
    session = obs.install(trace=trace, metrics=metrics,
                          trace_sample_rate=trace_sample) \
        if (trace or metrics) else None
    profiler = cProfile.Profile() if profile else None
    collector = _CollectorClock()
    try:
        try:
            if profiler is not None:
                gc.callbacks.append(collector)
                profiler.enable()
            result = _invoke(runner, seed, smoke, kwargs)
        finally:
            if profiler is not None:
                profiler.disable()
                gc.callbacks.remove(collector)
        if session is not None:
            extras = [str(p) for p in session.export(out, name)]
        if profiler is not None:
            extras.append(_write_profile(profiler, collector, out, name))
    except Exception:  # ragnar-lint: disable=RAG004 — runner isolation: one crashing experiment must not abort the batch; the traceback is captured, written to the output dir and reported in the exit summary
        return TaskOutcome(name=name, error=traceback.format_exc(),
                           elapsed=wallclock() - started)
    finally:
        if session is not None:
            obs.uninstall()
    table = result.format_table()
    path = result.save(out)
    return TaskOutcome(
        name=name, table=table, path=str(path),
        elapsed=wallclock() - started, extras=extras,
    )


def send_task(writer, task_args: tuple) -> None:
    """Run one experiment in a ``--jobs`` process; send its outcome.

    The process's body: :func:`run_task`, its ``TaskOutcome`` sent back
    on ``writer``."""
    writer.send(run_task(*task_args))
    writer.close()
