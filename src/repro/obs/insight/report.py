"""Deterministic markdown run reports.

``python -m repro.obs report <run_dir>`` renders everything a run
directory holds — experiment tables, trace artifacts, metrics
snapshots, bench history — into one markdown document answering "what
did this run do?".  The rendering is **byte-stable**: the same
artifacts produce the same bytes, so a committed golden report can
gate on drift (the check.sh insight stage).  That rules out wall-clock
stamps, absolute paths, and dict-order dependence — every section
iterates sorted and formats floats through :func:`_num`.
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional, Sequence

from repro.obs.insight.frame import TraceFrame

#: Spans shown in the "slowest spans" table.
DEFAULT_TOP = 10
#: Counter series longer than this are still analyzed in full; only
#: the detector table row count is bounded by the artifact itself.
_DETECTOR_MIN_SAMPLES = 8


def _num(value: float) -> str:
    """Stable float rendering: trimmed to 6 significant digits."""
    if value != value:  # NaN
        return "nan"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def discover_runs(run_dir: pathlib.Path,
                  names: Optional[Sequence[str]] = None) -> list[str]:
    """Experiment names present in a run directory, from any artifact
    the runner writes (``<name>.txt`` / ``.trace.jsonl`` /
    ``.metrics.json`` / ``.error.txt``)."""
    found = set()
    for path in run_dir.iterdir():
        stem = path.name
        for suffix in (".trace.jsonl", ".trace.json", ".metrics.json",
                       ".error.txt", ".report.md", ".prof.txt", ".txt"):
            if stem.endswith(suffix):
                found.add(stem[: -len(suffix)])
                break
    if names is not None:
        found &= set(names)
    return sorted(found)


def _trace_sections(frame: TraceFrame, top: int) -> list[str]:
    lines: list[str] = []
    info = frame.summary()
    first, last = info["start_ns"], info["end_ns"]
    lines.append("")
    lines.append(f"Trace `{frame.source}`: {info['spans']} spans, "
                 f"{info['instants']} instants, "
                 f"{info['counter_samples']} counter samples over "
                 f"{_num(last - first)} ns "
                 f"({len(info['components'])} components).")

    # -- station occupancy / utilization ------------------------------
    rows = []
    for component in info["components"]:
        durs = frame.durations(component=component)
        if durs.size == 0:
            continue
        times, depths = frame.occupancy(component)
        rows.append([
            f"`{component}`", str(durs.size),
            _num(float(durs.sum())),
            f"{frame.utilization(component):.3f}",
            _num(float(depths.max())) if depths.size else "0",
        ])
    if rows:
        lines.append("")
        lines.append("### Station occupancy")
        lines.append("")
        lines.extend(_table(
            ["component", "spans", "busy ns", "utilization", "max depth"],
            rows))

    # -- per-span latency ---------------------------------------------
    summaries = frame.latency_summaries()
    if summaries:
        lines.append("")
        lines.append("### Span latency")
        lines.append("")
        lines.extend(_table(
            ["component", "span", "count", "mean ns", "p10", "p90"],
            [[f"`{component}`", f"`{name}`", str(s.count),
              _num(s.mean), _num(s.p10), _num(s.p90)]
             for (component, name), s in summaries.items()]))

    # -- slowest spans ------------------------------------------------
    slowest = frame.slowest_spans(top=top)
    if slowest:
        lines.append("")
        lines.append(f"### Slowest spans (top {len(slowest)})")
        lines.append("")
        lines.extend(_table(
            ["dur ns", "at ns", "component", "span"],
            [[_num(dur), _num(ts), f"`{component}`", f"`{name}`"]
             for dur, ts, component, name in slowest]))

    # -- derived ULI --------------------------------------------------
    uli_times, uli_values = frame.uli_series()
    if uli_times.size >= _DETECTOR_MIN_SAMPLES:
        lines.append("")
        lines.append("### Derived ULI")
        lines.append("")
        periods = frame.uli_periods()
        period_text = (", ".join(_num(p) + " ns" for p in periods)
                       if periods else "none found")
        lines.append(f"{uli_times.size} end-to-end latency samples, "
                     f"mean {_num(float(uli_values.mean()))} ns, "
                     f"max {_num(float(uli_values.max()))} ns; "
                     f"dominant periods: {period_text}.")

    # -- counter series + detector verdicts ---------------------------
    # imported here: repro.sim.kernel loads repro.obs, so repro.obs must
    # not pull repro.defense in at module load
    from repro.defense.detectors import DetectorBank

    detector_rows = []
    for component, name, key in frame.counter_keys():
        times, values = frame.counter_series(name, key,
                                             component=component)
        if times.size < _DETECTOR_MIN_SAMPLES:
            continue
        bank = DetectorBank()
        for ts, value in zip(times, values):
            bank.observe(float(ts), float(value))
        results = bank.results()
        verdicts = []
        for det_name in sorted(results):
            detection = results[det_name]
            verdicts.append("FLAG" if detection.flagged else "ok")
        detector_rows.append([
            f"`{component}`", f"`{name}`", f"`{key}`", str(times.size),
            _num(float(values.mean())), *verdicts,
        ])
    if detector_rows:
        lines.append("")
        lines.append("### Counter series — online detector verdicts")
        lines.append("")
        lines.extend(_table(
            ["component", "counter", "key", "samples", "mean",
             "cusum", "ewma", "periodicity"],
            detector_rows))
    return lines


def _metrics_section(path: pathlib.Path,
                     heading: str = "### Metrics snapshot") -> list[str]:
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict) or not payload:
        return []
    rows = []
    for component in sorted(payload):
        metrics = payload[component]
        if not isinstance(metrics, dict):
            continue
        for name in sorted(metrics):
            row = metrics[name]
            if not isinstance(row, dict):
                continue
            kind = row.get("type", "?")
            if kind == "histogram":
                value = (f"count={_num(float(row.get('count', 0)))} "
                         f"mean={_num(float(row.get('mean', 0.0)))}")
            else:
                value = _num(float(row.get("value", 0.0)))
            rows.append([f"`{component}`", f"`{name}`", kind, value])
    if not rows:
        return []
    return ["", heading, "",
            *_table(["component", "metric", "type", "value"], rows)]


def _fleet_section(run_dir: pathlib.Path) -> list[str]:
    """The whole-run fleet view: the merged snapshot, preferred over
    repeating every per-experiment table."""
    fleet = run_dir / "fleet_metrics.json"
    if not fleet.exists():
        return []
    return ["", "## Fleet metrics", "",
            "Merged across every experiment's metrics snapshot "
            "(`fleet_metrics.json`); per-experiment snapshot "
            "tables are omitted in its favor.",
            *_metrics_section(fleet, heading="### Merged snapshot")]


def _history_section(history_dir: pathlib.Path) -> list[str]:
    """Trend lines from the two most recent bench_gate archives."""
    entries = sorted(history_dir.glob("*.json"))
    if len(entries) < 2:
        return []
    previous, latest = entries[-2], entries[-1]
    try:
        old = json.loads(previous.read_text())
        new = json.loads(latest.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    rows = []
    for name in sorted(set(old.get("benches", {}))
                       & set(new.get("benches", {}))):
        a = old["benches"][name].get("ops_per_s", 0.0)
        b = new["benches"][name].get("ops_per_s", 0.0)
        delta = (b - a) / a if a else 0.0
        rows.append([f"`{name}`", _num(a), _num(b), f"{delta:+.1%}"])
    if not rows:
        return []
    return [
        "", "## Bench trend", "",
        f"`{previous.name}` → `{latest.name}`:", "",
        *_table(["bench", "previous ops/s", "latest ops/s", "delta"],
                rows),
    ]


def render_report(run_dir, names: Optional[Sequence[str]] = None,
                  history_dir=None, top: int = DEFAULT_TOP) -> str:
    """Render one run directory to markdown (see the module docstring
    for the determinism contract)."""
    run_dir = pathlib.Path(run_dir)
    if not run_dir.is_dir():
        raise FileNotFoundError(f"{run_dir}: not a directory")
    runs = discover_runs(run_dir, names=names)
    lines = ["# repro run report", ""]
    if not runs:
        lines.append("No run artifacts found.")
        return "\n".join(lines) + "\n"
    lines.append(f"Experiments: {', '.join(f'`{r}`' for r in runs)}")
    for name in runs:
        lines.append("")
        lines.append(f"## {name}")
        error = run_dir / f"{name}.error.txt"
        if error.exists():
            lines.append("")
            lines.append(f"**FAILED** — traceback in `{error.name}`; "
                         f"last line:")
            tail = error.read_text().strip().splitlines()
            lines.append("")
            lines.append(f"    {tail[-1] if tail else '(empty)'}")
        table = run_dir / f"{name}.txt"
        if table.exists():
            lines.append("")
            lines.append("```")
            lines.append(table.read_text().rstrip("\n"))
            lines.append("```")
        trace = run_dir / f"{name}.trace.jsonl"
        if not trace.exists():
            trace = run_dir / f"{name}.trace.json"
        if trace.exists():
            lines.extend(_trace_sections(TraceFrame.load(trace), top=top))
        metrics = run_dir / f"{name}.metrics.json"
        if metrics.exists() and not (run_dir / "fleet_metrics.json").exists():
            lines.extend(_metrics_section(metrics))
    lines.extend(_fleet_section(run_dir))
    if history_dir is not None:
        history_dir = pathlib.Path(history_dir)
        if history_dir.is_dir():
            lines.extend(_history_section(history_dir))
    return "\n".join(lines) + "\n"
