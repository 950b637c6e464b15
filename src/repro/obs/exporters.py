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


def validate_metrics_json(path) -> list:
    """Structural + per-row check of a metrics snapshot file
    (``<name>.metrics.json``).  Error messages carry the flattened record
    index (sorted component, then sorted metric name — the snapshot's
    own serialization order) so a failing record in a large snapshot is
    findable by position, not just by name."""
    path = pathlib.Path(path)
    errors: list = []
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{path}: invalid JSON ({exc})"]
    if not isinstance(payload, dict):
        return [f"{path}: top level must be an object"]
    index = 0
    for component in sorted(payload):
        metrics = payload[component]
        if not isinstance(metrics, dict):
            errors.append(f"{path}: component {component!r} must map "
                          f"to an object")
            continue
        for name in sorted(metrics):
            row = metrics[name]
            where = f"{path}: record {index} ({component}.{name})"
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
    return errors


def validate_path(path) -> list:
    """Dispatch on filename: ``*.trace.jsonl`` / ``*.trace.json`` /
    ``*.metrics.json`` (the names :meth:`ObsSession.export` writes)."""
    name = pathlib.Path(path).name
    if name.endswith(".trace.jsonl"):
        return validate_trace_jsonl(path)
    if name.endswith(".trace.json"):
        return validate_chrome_trace(path)
    if name.endswith(".metrics.json"):
        return validate_metrics_json(path)
    return [f"{path}: unrecognized artifact name (expected *.trace.jsonl, "
            "*.trace.json or *.metrics.json)"]


def validate_paths(paths: Sequence) -> list:
    errors: list = []
    for path in paths:
        errors.extend(validate_path(path))
    return errors
