"""TraceFrame: an indexed, queryable view over one exported trace.

Loads either artifact the exporters write — ``*.trace.jsonl``
(nanosecond records, one per line) or ``*.trace.json`` (Chrome
trace-event, microseconds) — into one normalized in-memory index:

* spans, instants and counter samples, each per ``(component, name)``;
* per-span-name latency arrays and :class:`~repro.analysis.stats`
  summaries;
* counter time series per ``(component, name, arg key)``;
* station occupancy (concurrent-span depth over time) per component;
* derived ULI series — the end-to-end ``wqe`` spans the RNIC pipeline
  emits and the per-WR spans of the verbs engine are completion
  latencies, i.e. exactly the quantity the covert receivers demodulate.

Everything returns plain lists/arrays ordered deterministically, so
downstream renderers (:mod:`repro.obs.insight.report`) are byte-stable.
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional, Sequence

import numpy as np

from repro.analysis.periodicity import dominant_periods
from repro.analysis.stats import SummaryStats, summarize
from repro.obs.tracer import PHASE_COUNTER, PHASE_INSTANT, PHASE_SPAN

_US_TO_NS = 1e3

#: Span names whose duration is an end-to-end completion latency — the
#: defender-invisible quantity Ragnar modulates (docs/OBSERVABILITY.md
#: "What gets recorded").
_ULI_SPAN_NAMES = ("wqe", "read", "write", "send")


class TraceFrame:
    """One loaded trace, indexed by phase and ``(component, name)``."""

    def __init__(self, records: Sequence[dict], source: str = "") -> None:
        self.source = source
        #: (ts, dur, component, name, args) sorted by (ts, component, name)
        self.spans: list[tuple] = []
        #: (ts, component, name, args)
        self.instants: list[tuple] = []
        #: (ts, component, name, {series: value})
        self.counters: list[tuple] = []
        for record in records:
            phase = record.get("ph")
            ts = float(record.get("ts", 0.0))
            component = str(record.get("component", ""))
            name = str(record.get("name", ""))
            args = record.get("args") or {}
            if phase == PHASE_SPAN:
                self.spans.append(
                    (ts, float(record.get("dur", 0.0)), component, name, args))
            elif phase == PHASE_INSTANT:
                self.instants.append((ts, component, name, args))
            elif phase == PHASE_COUNTER:
                self.counters.append((ts, component, name, args))
        self.spans.sort(key=lambda s: (s[0], s[2], s[3]))
        self.instants.sort(key=lambda i: (i[0], i[1], i[2]))
        self.counters.sort(key=lambda c: (c[0], c[1], c[2]))

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @classmethod
    def from_jsonl(cls, path) -> "TraceFrame":
        path = pathlib.Path(path)
        records = []
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})"
                                 ) from exc
        return cls(records, source=path.name)

    @classmethod
    def from_chrome(cls, path) -> "TraceFrame":
        """Load a Chrome trace-event file, mapping µs back to ns and
        recovering component names from the thread-name metadata."""
        path = pathlib.Path(path)
        payload = json.loads(path.read_text())
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError(f"{path}: missing 'traceEvents' array")
        threads = {
            (event.get("pid", 0), event.get("tid", 0)):
                event.get("args", {}).get("name", "")
            for event in events if event.get("ph") == "M"
        }
        records = []
        for event in events:
            if event.get("ph") == "M":
                continue
            record = dict(event)
            record["ts"] = float(event.get("ts", 0.0)) * _US_TO_NS
            if "dur" in event:
                record["dur"] = float(event["dur"]) * _US_TO_NS
            record["component"] = threads.get(
                (event.get("pid", 0), event.get("tid", 0)), "")
            records.append(record)
        return cls(records, source=path.name)

    @classmethod
    def load(cls, path) -> "TraceFrame":
        """Dispatch on the exporter naming convention."""
        name = pathlib.Path(path).name
        if name.endswith(".trace.jsonl"):
            return cls.from_jsonl(path)
        if name.endswith(".trace.json"):
            return cls.from_chrome(path)
        raise ValueError(f"{path}: not a *.trace.jsonl or *.trace.json "
                         f"artifact")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.counters)

    @property
    def span_range(self) -> tuple[float, float]:
        """(first, last) timestamp across all records (0, 0 if empty)."""
        times = ([s[0] for s in self.spans] + [s[0] + s[1] for s in self.spans]
                 + [i[0] for i in self.instants]
                 + [c[0] for c in self.counters])
        if not times:
            return 0.0, 0.0
        return min(times), max(times)

    def components(self) -> list[str]:
        return sorted({s[2] for s in self.spans}
                      | {i[1] for i in self.instants}
                      | {c[1] for c in self.counters})

    def summary(self) -> dict:
        first, last = self.span_range
        return {
            "spans": len(self.spans),
            "instants": len(self.instants),
            "counter_samples": len(self.counters),
            "components": self.components(),
            "start_ns": first,
            "end_ns": last,
        }

    # ------------------------------------------------------------------
    # Span queries
    # ------------------------------------------------------------------
    def durations(self, name: Optional[str] = None,
                  component: Optional[str] = None) -> np.ndarray:
        """Span durations (ns) filtered by name and/or component."""
        return np.asarray([
            dur for ts, dur, comp, span_name, _ in self.spans
            if (name is None or span_name == name)
            and (component is None or comp == component)
        ], dtype=np.float64)

    def latency_summaries(self) -> dict[tuple[str, str], SummaryStats]:
        """Per ``(component, span name)`` latency summary, sorted keys."""
        groups: dict[tuple[str, str], list[float]] = {}
        for ts, dur, component, name, _ in self.spans:
            groups.setdefault((component, name), []).append(dur)
        return {key: summarize(groups[key]) for key in sorted(groups)}

    def slowest_spans(self, top: int = 10) -> list[tuple]:
        """The ``top`` longest spans as (dur, ts, component, name),
        longest first; ties broken by (ts, component, name) so the
        ordering — and any report built on it — is deterministic."""
        ranked = sorted(self.spans,
                        key=lambda s: (-s[1], s[0], s[2], s[3]))
        return [(dur, ts, component, name)
                for ts, dur, component, name, _ in ranked[:top]]

    # ------------------------------------------------------------------
    # Counter / instant series
    # ------------------------------------------------------------------
    def counter_keys(self) -> list[tuple[str, str, str]]:
        """All (component, counter name, series key) triples, sorted."""
        keys = set()
        for ts, component, name, args in self.counters:
            for key in args:
                keys.add((component, name, key))
        return sorted(keys)

    def counter_series(self, name: str, key: str,
                       component: Optional[str] = None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """(times, values) for one counter series, time-ordered."""
        times, values = [], []
        for ts, comp, counter_name, args in self.counters:
            if counter_name != name or key not in args:
                continue
            if component is not None and comp != component:
                continue
            times.append(ts)
            values.append(float(args[key]))
        return (np.asarray(times, dtype=np.float64),
                np.asarray(values, dtype=np.float64))

    # ------------------------------------------------------------------
    # Occupancy (queue depth) and utilization
    # ------------------------------------------------------------------
    def occupancy(self, component: str) -> tuple[np.ndarray, np.ndarray]:
        """Concurrent-span depth over time for one component.

        Returns (event times, depth after each event) from the +1/-1
        sweep over span starts/ends — the station's queue-depth series.
        """
        edges: list[tuple[float, int]] = []
        for ts, dur, comp, _, _ in self.spans:
            if comp != component:
                continue
            edges.append((ts, 1))
            edges.append((ts + dur, -1))
        if not edges:
            return (np.asarray([], dtype=np.float64),
                    np.asarray([], dtype=np.float64))
        # ends sort before starts at equal times so back-to-back spans
        # do not read as overlapping
        edges.sort(key=lambda e: (e[0], e[1]))
        times, depths, depth = [], [], 0
        for ts, step in edges:
            depth += step
            times.append(ts)
            depths.append(depth)
        return (np.asarray(times, dtype=np.float64),
                np.asarray(depths, dtype=np.float64))

    def utilization(self, component: str) -> float:
        """Busy fraction: union of span intervals / trace wall span."""
        first, last = self.span_range
        window = last - first
        if window <= 0:
            return 0.0
        times, depths = self.occupancy(component)
        if times.size == 0:
            return 0.0
        busy = 0.0
        for i in range(times.size - 1):
            if depths[i] > 0:
                busy += times[i + 1] - times[i]
        return busy / window

    # ------------------------------------------------------------------
    # Derived ULI series
    # ------------------------------------------------------------------
    def uli_series(self, component: Optional[str] = None
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Completion-latency samples derived from end-to-end spans.

        Each ``wqe`` span (RNIC pipeline) or per-WR verbs-engine span is
        one ULI sample; the timestamp is the span midpoint — the same
        convention the covert receivers use (see
        :class:`repro.covert.lockstep.PipelinedReader`).
        """
        times, values = [], []
        for ts, dur, comp, name, _ in self.spans:
            if name not in _ULI_SPAN_NAMES:
                continue
            if component is not None and comp != component:
                continue
            times.append(ts + dur / 2.0)
            values.append(dur)
        order = np.argsort(np.asarray(times, dtype=np.float64),
                           kind="stable")
        return (np.asarray(times, dtype=np.float64)[order],
                np.asarray(values, dtype=np.float64)[order])

    def uli_periods(self, buckets: int = 128, top: int = 3) -> list[float]:
        """Dominant periods (ns) of the derived ULI series, from the
        unbiased autocorrelation of the uniformly resampled signal."""
        times, values = self.uli_series()
        if times.size < 8:
            return []
        grid_times, grid_values = resample_uniform(times, values, buckets)
        if grid_times.size < 8:
            return []
        step_ns = float(grid_times[1] - grid_times[0])
        return [lag * step_ns
                for lag in dominant_periods(grid_values, top=top)]


def resample_uniform(times: np.ndarray, values: np.ndarray, buckets: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Bucket-mean an irregular series onto a uniform grid.

    Empty buckets take the running previous mean (zero-order hold), so
    the output is gap-free and autocorrelation-friendly.  Returns
    (bucket start times, bucket means).
    """
    if buckets < 2:
        raise ValueError(f"need at least 2 buckets, got {buckets}")
    if times.size == 0:
        return (np.asarray([], dtype=np.float64),
                np.asarray([], dtype=np.float64))
    start, end = float(times.min()), float(times.max())
    if end <= start:
        return (np.asarray([start]), np.asarray([float(values.mean())]))
    width = (end - start) / buckets
    index = np.minimum(((times - start) / width).astype(np.int64),
                       buckets - 1)
    sums = np.bincount(index, weights=values, minlength=buckets)
    counts = np.bincount(index, minlength=buckets)
    means = np.zeros(buckets, dtype=np.float64)
    hold = float(values[0])
    for i in range(buckets):
        if counts[i]:
            hold = sums[i] / counts[i]
        means[i] = hold
    grid = start + width * np.arange(buckets, dtype=np.float64)
    return grid, means
