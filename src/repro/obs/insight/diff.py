"""Run-to-run comparison with configurable tolerances.

``python -m repro.obs diff <run_a> <run_b>`` compares two run
directories the way a CI gate needs to: metric snapshots and bench
JSON within relative tolerances, experiment tables byte-for-byte.
Any finding beyond tolerance is a **regression** and the CLI exits
nonzero; identical runs diff clean and exit zero.

What is compared (by matching file name in both directories):

* ``<name>.metrics.json`` — every numeric leaf (counter/gauge values,
  histogram count/sum), relative drift beyond ``--tolerance``;
* ``BENCH*.json`` bench reports — per-bench ``ops_per_s``; a *drop*
  beyond ``--bench-tolerance`` regresses (improvements are noted,
  never fatal);
* ``<name>.txt`` tables — behavioural output, must match exactly;
* ``<name>.trace.jsonl`` — advisory only: event-count drift is noted
  but traces are timing-shaped, so they never fail the diff;
* ``fleet_metrics.json`` — the merged fleet snapshot, same numeric
  comparison as per-task metrics.

A JSON artifact that does not parse, or whose top level is not an
object, is an ``unreadable`` regression.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Iterator


@dataclasses.dataclass
class DiffResult:
    """Comparison outcome: human lines plus the regression list."""

    lines: list[str] = dataclasses.field(default_factory=list)
    regressions: list[str] = dataclasses.field(default_factory=list)
    notes: list[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        out = list(self.lines)
        for note in self.notes:
            out.append(f"note: {note}")
        for regression in self.regressions:
            out.append(f"REGRESSION: {regression}")
        out.append("diff: ok" if self.ok else
                   f"diff: {len(self.regressions)} regression(s)")
        return "\n".join(out) + "\n"


def _metric_leaves(payload: dict) -> Iterator[tuple[str, float]]:
    """Flatten a metrics snapshot to sorted (dotted key, value) pairs."""
    for component in sorted(payload):
        metrics = payload[component]
        if not isinstance(metrics, dict):
            continue
        for name in sorted(metrics):
            row = metrics[name]
            if not isinstance(row, dict):
                continue
            for field in ("value", "count", "sum"):
                value = row.get(field)
                if isinstance(value, (int, float)):
                    yield f"{component}.{name}.{field}", float(value)


def _read_object(path: pathlib.Path) -> dict:
    """A JSON artifact's top-level object; ``ValueError`` (which
    ``json.JSONDecodeError`` subclasses) when it is anything else."""
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"top level is a {type(payload).__name__}, "
                         f"not an object")
    return payload


def _rel_delta(a: float, b: float) -> float:
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    return (b - a) / scale if scale else 0.0


def _diff_metrics(path_a: pathlib.Path, path_b: pathlib.Path,
                  tolerance: float, result: DiffResult) -> None:
    try:
        leaves_a = dict(_metric_leaves(_read_object(path_a)))
        leaves_b = dict(_metric_leaves(_read_object(path_b)))
    except ValueError as exc:
        result.regressions.append(f"{path_a.name}: unreadable ({exc})")
        return
    for key in sorted(set(leaves_a) | set(leaves_b)):
        if key not in leaves_a:
            result.regressions.append(
                f"{path_a.name}: metric {key} only in run B")
            continue
        if key not in leaves_b:
            result.regressions.append(
                f"{path_a.name}: metric {key} only in run A")
            continue
        delta = _rel_delta(leaves_a[key], leaves_b[key])
        if abs(delta) > tolerance:
            result.regressions.append(
                f"{path_a.name}: {key} drifted {delta:+.1%} "
                f"({leaves_a[key]:.6g} -> {leaves_b[key]:.6g}, "
                f"tolerance {tolerance:.0%})")


def _diff_bench(path_a: pathlib.Path, path_b: pathlib.Path,
                bench_tolerance: float, result: DiffResult) -> None:
    try:
        bench_a = _read_object(path_a).get("benches", {})
        bench_b = _read_object(path_b).get("benches", {})
    except ValueError as exc:
        result.regressions.append(f"{path_a.name}: unreadable ({exc})")
        return
    for name in sorted(set(bench_a) & set(bench_b)):
        a = bench_a[name].get("ops_per_s")
        b = bench_b[name].get("ops_per_s")
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            continue
        if a <= 0:
            continue
        ratio = b / a
        if ratio < 1.0 - bench_tolerance:
            result.regressions.append(
                f"{path_a.name}: {name} throughput regressed to "
                f"{ratio:.2f}x ({a:,.0f} -> {b:,.0f} ops/s, tolerance "
                f"{bench_tolerance:.0%})")
        elif ratio > 1.0 + bench_tolerance:
            result.notes.append(
                f"{path_a.name}: {name} improved to {ratio:.2f}x")


def _trace_event_count(path: pathlib.Path) -> int:
    return sum(1 for line in path.read_text().splitlines() if line.strip())


def diff_runs(run_a, run_b, tolerance: float = 0.2,
              bench_tolerance: float = 0.2) -> DiffResult:
    """Compare two run directories; see the module docstring."""
    run_a = pathlib.Path(run_a)
    run_b = pathlib.Path(run_b)
    for run in (run_a, run_b):
        if not run.is_dir():
            raise FileNotFoundError(f"{run}: not a directory")
    result = DiffResult()
    names_a = {p.name for p in run_a.iterdir() if p.is_file()}
    names_b = {p.name for p in run_b.iterdir() if p.is_file()}
    for name in sorted(names_a ^ names_b):
        side = "A" if name in names_a else "B"
        result.notes.append(f"{name}: only in run {side}")
    compared = 0
    for name in sorted(names_a & names_b):
        path_a, path_b = run_a / name, run_b / name
        if name.endswith(".metrics.json") or name == "fleet_metrics.json":
            compared += 1
            _diff_metrics(path_a, path_b, tolerance, result)
        elif name.startswith("BENCH") and name.endswith(".json"):
            compared += 1
            _diff_bench(path_a, path_b, bench_tolerance, result)
        elif name.endswith(".error.txt"):
            compared += 1
        elif name.endswith(".trace.jsonl"):
            compared += 1
            count_a = _trace_event_count(path_a)
            count_b = _trace_event_count(path_b)
            if count_a != count_b:
                result.notes.append(
                    f"{name}: event count {count_a} -> {count_b} "
                    f"(advisory)")
        elif name.endswith(".txt") and not name.endswith(
                (".prof.txt",)):
            compared += 1
            if path_a.read_text() != path_b.read_text():
                result.regressions.append(
                    f"{name}: experiment table differs")
    result.lines.append(
        f"compared {compared} artifact pair(s) between "
        f"{len(names_a)} (A) and {len(names_b)} (B) files")
    return result
