"""One benchmark repetition in a fresh interpreter.

Usage (``run.py`` spawns this; it is not meant to be run by hand)::

    python3 perfbench/worker.py --workload covert-sweep --seed 3 \\
        --spawned-at <monotonic seconds> [--trace] [--setup-only]

Set-up (importing ``repro`` and building the workload's inputs) is
timed from ``--spawned-at``, the parent's ``time.monotonic()`` just
before it started this process, so interpreter start-up, imports,
kernel-core selection and lazy first-call work all land in set-up.
The repetition prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Environment variables that select a code path or a thread count.
SETTING_ENV = (
    "REPRO_RNIC_BATCH", "REPRO_SIM_ENGINE", "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def cpu_features() -> str:
    """The CPU features numpy dispatches on (its SIMD float kernels and
    OpenBLAS's kernels differ by feature level, and so may results)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return " ".join(name for name, on in __cpu_features__.items() if on)


def settings() -> dict:
    """The run's kernel core, translation drain, batch switch, thread
    settings and platform; runs with different settings are not
    compared."""
    import numpy

    import repro.rnic.batch as batch
    import repro.rnic.translation as translation
    from repro.sim import KERNEL_ENGINE

    out = {
        "kernel_engine": KERNEL_ENGINE,
        "tpu_admit_batch": "python" if getattr(
            translation, "_C_TPU_TAIL", None) is None else "c",
        "rnic_batch_enabled": bool(batch.FAST_PATH_ENABLED),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "libc": " ".join(platform.libc_ver()),
        "cpu_features": cpu_features(),
    }
    out.update({key: os.environ.get(key, "") for key in SETTING_ENV})
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, default=_STARTED)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_started = time.monotonic()
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workloads.import_workload(args.workload)
    import_s = time.monotonic() - import_started

    build_started = time.monotonic()
    inst = workloads.Instruments(traced=args.trace)
    tasks, pair = workloads.build_workload(args.workload, args.seed, inst)
    ready = time.monotonic()
    record = {
        "setup_s": ready - args.spawned_at,
        "import_s": import_s,
        "build_s": ready - build_started,
        "settings": settings(),
    }
    if not args.setup_only:
        record.update(workloads.run_workload(tasks, pair, inst))
        record["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if inst.recorder is not None:
            record["spans"] = {
                name: {"calls": s.calls, "total_s": s.total_s,
                       "self_s": s.self_s, "child_s": s.child_s,
                       "units": s.units}
                for name, s in inst.recorder.stats.items()
            }
            record["sim"] = {"simulators": inst.sims.created,
                             "events": inst.sims.total()}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
