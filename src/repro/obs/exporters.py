"""Exporters and validators for trace/metrics artifacts.

Two trace formats from the same :class:`~repro.obs.tracer.TraceEvent`
stream:

* **JSONL** — one record per line, nanosecond timestamps, the
  machine-readable interchange format (validated by
  :func:`validate_trace_jsonl`, e.g. in the ``tools/check.sh`` obs
  smoke stage).
* **Chrome trace-event JSON** — the ``{"traceEvents": [...]}`` shape
  that ``chrome://tracing`` / Perfetto load directly.  Chrome wants
  microseconds, so timestamps/durations are divided by 1e3 on the way
  out; each distinct component becomes a named thread row via
  ``thread_name`` metadata events.

Metrics snapshots serialize to plain JSON
(:func:`write_metrics_json`); the registry already sorts them, so the
file is byte-stable across reruns of a seeded experiment.
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterable, Sequence

from .tracer import PHASE_COUNTER, PHASE_INSTANT, PHASE_SPAN, TraceEvent

_NS_PER_US = 1e3
_VALID_PHASES = (PHASE_SPAN, PHASE_INSTANT, PHASE_COUNTER)


# ----------------------------------------------------------------------
# Writers
# ----------------------------------------------------------------------
def write_jsonl(events: Iterable[TraceEvent], path) -> pathlib.Path:
    """One JSON record per line, timestamps in simulated ns."""
    path = pathlib.Path(path)
    with path.open("w") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True))
            handle.write("\n")
    return path


def write_chrome_trace(
    events: Iterable[TraceEvent], path, pid: int = 0
) -> pathlib.Path:
    """``chrome://tracing``-loadable JSON (ts/dur in µs)."""
    path = pathlib.Path(path)
    tids: dict = {}
    records = []
    for event in events:
        tid = tids.get(event.component)
        if tid is None:
            tid = len(tids)
            tids[event.component] = tid
        record = {
            "name": event.name,
            "ph": event.phase,
            "ts": event.ts / _NS_PER_US,
            "pid": pid,
            "tid": tid,
        }
        if event.phase == PHASE_SPAN:
            record["dur"] = event.dur / _NS_PER_US
        elif event.phase == PHASE_INSTANT:
            record["s"] = "t"  # thread-scoped instant
        if event.category:
            record["cat"] = event.category
        if event.args:
            record["args"] = dict(event.args)
        records.append(record)
    metadata = [
        {
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": component},
        }
        for component, tid in tids.items()
    ]
    payload = {"traceEvents": metadata + records, "displayTimeUnit": "ns"}
    path = pathlib.Path(path)
    path.write_text(json.dumps(payload) + "\n")
    return path


def write_metrics_json(snapshot: dict, path) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# Validators (the schema for the check.sh smoke stage)
# ----------------------------------------------------------------------
def _check_record(record: object, where: str, errors: list) -> None:
    if not isinstance(record, dict):
        errors.append(f"{where}: not a JSON object")
        return
    for field, kinds in (("name", str), ("ph", str),
                        ("ts", (int, float)), ("component", str)):
        if field not in record:
            errors.append(f"{where}: missing field {field!r}")
        elif not isinstance(record[field], kinds):
            errors.append(f"{where}: field {field!r} has wrong type "
                          f"{type(record[field]).__name__}")
    phase = record.get("ph")
    if isinstance(phase, str) and phase not in _VALID_PHASES:
        errors.append(f"{where}: unknown phase {phase!r}")
    if phase == PHASE_SPAN:
        dur = record.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            errors.append(f"{where}: span needs a non-negative 'dur'")
    if phase == PHASE_COUNTER and not isinstance(record.get("args"), dict):
        errors.append(f"{where}: counter needs an 'args' mapping")
    ts = record.get("ts")
    if isinstance(ts, (int, float)) and ts < 0:
        errors.append(f"{where}: negative timestamp {ts}")


def validate_trace_jsonl(path) -> list:
    """Schema-check a JSONL trace; returns a list of error strings
    (empty == valid).  An empty file is an error — a smoke run that
    traced nothing means the hooks never fired."""
    path = pathlib.Path(path)
    errors: list = []
    lines = path.read_text().splitlines()
    if not lines:
        return [f"{path}: empty trace"]
    for lineno, line in enumerate(lines, 1):
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{where}: invalid JSON ({exc})")
            continue
        _check_record(record, where, errors)
    return errors


def validate_chrome_trace(path) -> list:
    """Structural check of a Chrome trace-event file."""
    path = pathlib.Path(path)
    errors: list = []
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{path}: invalid JSON ({exc})"]
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return [f"{path}: missing top-level 'traceEvents' array"]
    events = payload["traceEvents"]
    if not isinstance(events, list) or not events:
        return [f"{path}: 'traceEvents' must be a non-empty array"]
    for index, record in enumerate(events):
        where = f"{path}#traceEvents[{index}]"
        if not isinstance(record, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        phase = record.get("ph")
        if not isinstance(phase, str):
            errors.append(f"{where}: missing phase 'ph'")
            continue
        if phase == "M":
            continue  # metadata events carry no timestamp
        for field in ("name", "ts", "pid", "tid"):
            if field not in record:
                errors.append(f"{where}: missing field {field!r}")
        if phase not in _VALID_PHASES:
            errors.append(f"{where}: unknown phase {phase!r}")
        if phase == PHASE_SPAN and "dur" not in record:
            errors.append(f"{where}: span missing 'dur'")
    return errors


def _check_histogram_row(row: dict, where: str, errors: list) -> None:
    buckets = row.get("buckets")
    counts = row.get("counts")
    if not isinstance(buckets, list) or not all(
            isinstance(b, (int, float)) for b in buckets):
        errors.append(f"{where}: histogram 'buckets' must be a numeric "
                      f"array")
        return
    if any(b >= buckets[i + 1] for i, b in enumerate(buckets[:-1])):
        errors.append(f"{where}: histogram buckets must be strictly "
                      f"increasing")
    if not isinstance(counts, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) and c >= 0
            for c in counts):
        errors.append(f"{where}: histogram 'counts' must be an array of "
                      f"non-negative integers")
        return
    if len(counts) != len(buckets) + 1:
        errors.append(f"{where}: histogram has {len(counts)} counts for "
                      f"{len(buckets)} buckets (want len(buckets)+1)")
        return
    total = row.get("count")
    if isinstance(total, int) and total != sum(counts):
        errors.append(f"{where}: histogram 'count' {total} != sum of "
                      f"bucket counts {sum(counts)}")


def _check_metrics_payload(payload: object, prefix: str,
                           errors: list) -> None:
    """Per-row check of one metrics snapshot object; shared by
    :func:`validate_metrics_json` (whole files) and
    :func:`validate_fleet_jsonl` (the ``metrics`` field of every
    fleet snapshot line)."""
    if not isinstance(payload, dict):
        errors.append(f"{prefix}: top level must be an object")
        return
    index = 0
    for component in sorted(payload):
        metrics = payload[component]
        if not isinstance(metrics, dict):
            errors.append(f"{prefix}: component {component!r} must map "
                          f"to an object")
            continue
        for name in sorted(metrics):
            row = metrics[name]
            where = f"{prefix}: record {index} ({component}.{name})"
            index += 1
            if not isinstance(row, dict) or "type" not in row:
                errors.append(f"{where}: metric rows need a 'type'")
                continue
            kind = row["type"]
            if kind not in ("counter", "gauge", "histogram"):
                errors.append(f"{where}: unknown metric type {kind!r}")
                continue
            if kind in ("counter", "gauge"):
                value = row.get("value")
                if not isinstance(value, (int, float)) or \
                        isinstance(value, bool):
                    errors.append(f"{where}: {kind} 'value' must be "
                                  f"numeric, got "
                                  f"{type(value).__name__}")
                elif kind == "counter" and value < 0:
                    errors.append(f"{where}: counter 'value' must be "
                                  f"non-negative, got {value}")
            else:
                _check_histogram_row(row, where, errors)


def validate_metrics_json(path) -> list:
    """Structural + per-row check of a metrics snapshot file.  Error
    messages carry the flattened record index (sorted component, then
    sorted metric name — the snapshot's own serialization order) so a
    failing record in a large snapshot is findable by position, not
    just by name."""
    path = pathlib.Path(path)
    errors: list = []
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{path}: invalid JSON ({exc})"]
    _check_metrics_payload(payload, str(path), errors)
    return errors


def validate_fleet_jsonl(path) -> list:
    """Check a ``fleet_snapshots.jsonl`` file: every line a fleet
    snapshot record with a strictly increasing ``rev``, ``kind``
    ``"final"`` (the only record the fleet pass writes), a ``task``
    name, a sane ``tasks_done``, and a ``metrics`` payload that passes
    the full metrics-snapshot check.  Errors name the offending line
    and the flattened record index inside it."""
    path = pathlib.Path(path)
    errors: list = []
    last_rev = 0
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        prefix = f"{path}:{lineno}"
        if not line.strip():
            errors.append(f"{prefix}: blank line")
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{prefix}: invalid JSON ({exc})")
            continue
        if not isinstance(record, dict):
            errors.append(f"{prefix}: fleet records must be objects")
            continue
        rev = record.get("rev")
        if not isinstance(rev, int) or isinstance(rev, bool) or rev < 1:
            errors.append(f"{prefix}: 'rev' must be a positive integer, "
                          f"got {rev!r}")
        elif rev <= last_rev:
            errors.append(f"{prefix}: 'rev' {rev} not greater than "
                          f"previous {last_rev}")
        else:
            last_rev = rev
        if record.get("kind") != "final":
            errors.append(f"{prefix}: 'kind' must be 'final', "
                          f"got {record.get('kind')!r}")
        task = record.get("task")
        if not isinstance(task, str) or not task:
            errors.append(f"{prefix}: 'task' must be a non-empty string")
        done = record.get("tasks_done")
        if not isinstance(done, int) or isinstance(done, bool) or done < 0:
            errors.append(f"{prefix}: 'tasks_done' must be a "
                          f"non-negative integer, got {done!r}")
        _check_metrics_payload(record.get("metrics"),
                               f"{prefix}: metrics", errors)
    if last_rev == 0 and not errors:
        errors.append(f"{path}: empty fleet snapshot stream")
    return errors


def validate_slo_report(path) -> list:
    """Check an ``slo_report.json``: top-level shape, each objective's
    required fields (errors name ``objective N (name)``), and each
    alert's required fields (``alert N``)."""
    path = pathlib.Path(path)
    errors: list = []
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{path}: invalid JSON ({exc})"]
    if not isinstance(payload, dict):
        return [f"{path}: top level must be an object"]
    if not isinstance(payload.get("spec"), str) or not payload.get("spec"):
        errors.append(f"{path}: 'spec' must be a non-empty string")
    ticks = payload.get("ticks")
    if not isinstance(ticks, int) or isinstance(ticks, bool) or ticks < 0:
        errors.append(f"{path}: 'ticks' must be a non-negative integer")
    if not isinstance(payload.get("compliant"), bool):
        errors.append(f"{path}: 'compliant' must be a boolean")
    objectives = payload.get("objectives")
    if not isinstance(objectives, list):
        errors.append(f"{path}: 'objectives' must be an array")
        objectives = []
    for index, objective in enumerate(objectives):
        label = (objective.get("name", "?")
                 if isinstance(objective, dict) else "?")
        where = f"{path}: objective {index} ({label})"
        if not isinstance(objective, dict):
            errors.append(f"{where}: must be an object")
            continue
        if objective.get("kind") not in ("latency", "error_rate"):
            errors.append(f"{where}: 'kind' must be 'latency' or "
                          f"'error_rate', got {objective.get('kind')!r}")
        for field in ("name", "good", "bad", "alerts", "compliant",
                      "windows"):
            if field not in objective:
                errors.append(f"{where}: missing field {field!r}")
        windows = objective.get("windows")
        if isinstance(windows, list):
            for w_index, window in enumerate(windows):
                if not isinstance(window, dict) or not isinstance(
                        window.get("ticks"), int):
                    errors.append(f"{where}: window {w_index} needs an "
                                  f"integer 'ticks'")
    alerts = payload.get("alerts")
    if not isinstance(alerts, list):
        errors.append(f"{path}: 'alerts' must be an array")
        alerts = []
    for index, alert in enumerate(alerts):
        where = f"{path}: alert {index}"
        if not isinstance(alert, dict):
            errors.append(f"{where}: must be an object")
            continue
        for field in ("tick", "objective", "window_ticks", "burn_rate",
                      "threshold", "severity"):
            if field not in alert:
                errors.append(f"{where}: missing field {field!r}")
    return errors


def validate_path(path) -> list:
    """Dispatch on filename: ``*.trace.jsonl`` / ``*.trace.json`` /
    ``*.metrics.json`` (the names :meth:`ObsSession.export` writes)
    plus the fleet artifacts (``fleet_snapshots.jsonl`` /
    ``fleet_metrics.json`` / ``slo_report.json``)."""
    name = pathlib.Path(path).name
    if name == "fleet_snapshots.jsonl" or name.endswith(".fleet.jsonl"):
        return validate_fleet_jsonl(path)
    if name == "slo_report.json" or name.endswith(".slo.json"):
        return validate_slo_report(path)
    if name == "fleet_metrics.json":
        # the merged fleet snapshot has exactly the per-task shape
        return validate_metrics_json(path)
    if name.endswith(".trace.jsonl"):
        return validate_trace_jsonl(path)
    if name.endswith(".trace.json"):
        return validate_chrome_trace(path)
    if name.endswith(".metrics.json"):
        return validate_metrics_json(path)
    return [f"{path}: unrecognized artifact name (expected *.trace.jsonl, "
            f"*.trace.json, *.metrics.json, fleet_snapshots.jsonl, or "
            f"slo_report.json)"]


def validate_paths(paths: Sequence) -> list:
    errors: list = []
    for path in paths:
        errors.extend(validate_path(path))
    return errors
