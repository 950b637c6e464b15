"""Declarative SLOs over fleet snapshots: specs, burn rates, alerts.

An :class:`SloSpec` (loaded from JSON by :func:`load_spec`) declares
objectives of two kinds, both evaluated against the deterministic fleet
snapshots the post-batch fleet pass produces:

* ``latency`` — a percentile target over a histogram metric
  (``metric`` selects by flattened ``component.name``, ``fnmatch``
  globs allowed; multiple matches merge exactly first).  The percentile
  is read from cumulative bucket counts, reporting the containing
  bucket's upper bound — state targets as bucket bounds for exact
  semantics.
* ``error_rate`` — an error budget over two scalar selectors:
  ``bad / good`` (counter/gauge sums over the sorted glob matches) must
  stay under ``budget``.

Both kinds take multi-window **burn-rate rules** (SRE-style: burn =
observed error rate / budget; a window alerts when its burn over the
last ``ticks`` snapshots reaches ``burn_rate``).  For latency
objectives the implied budget is ``1 - percentile`` (p99 under target
⇔ at most 1 % of observations above it).

:class:`SloEngine` consumes a sequence of *cumulative* fleet snapshots
(one tick per snapshot) via :meth:`~SloEngine.observe` and emits alerts
as structured records the moment a window crosses its threshold; it
backs :func:`evaluate_snapshots`, which builds ``slo_report.json`` from
the per-task prefix merges (fresh engine, deterministic tick order —
same seed, same bytes).
"""

from __future__ import annotations

import bisect
import dataclasses
import fnmatch
import json
import math
import pathlib
from typing import Iterator, Optional, Sequence, Union

from .merge import merge_rows

_KINDS = ("latency", "error_rate")
#: Burn rates are clamped here instead of serializing ``Infinity``
#: (which is not strict JSON) when the good-event delta is zero.
_BURN_CAP = 1e9  # ragnar-lint: disable=RAG007 — a dimensionless burn-rate cap, not a time conversion


class SloSpecError(ValueError):
    """A spec failed validation; the message names the objective index."""


@dataclasses.dataclass(frozen=True)
class BurnWindow:
    """One burn-rate alert rule: a lookback of ``ticks`` snapshots and
    the burn multiple at which it fires."""

    ticks: int
    burn_rate: float
    severity: str = "page"


@dataclasses.dataclass(frozen=True)
class SloObjective:
    """One declared objective; see the module docstring for kinds."""

    name: str
    kind: str
    metric: str = ""            # latency: histogram selector
    percentile: float = 0.99    # latency
    target: float = 0.0         # latency: percentile upper bound
    bad: str = ""               # error_rate: numerator selector
    good: str = ""              # error_rate: denominator selector
    budget: float = 0.0         # error_rate: allowed bad/good ratio
    windows: tuple = ()         # tuple[BurnWindow, ...]

    @property
    def error_budget(self) -> float:
        """The fraction of events allowed to be bad."""
        if self.kind == "latency":
            return 1.0 - self.percentile
        return self.budget


@dataclasses.dataclass(frozen=True)
class SloSpec:
    """A named set of objectives (the ``--slo spec.json`` payload)."""

    name: str
    objectives: tuple = ()      # tuple[SloObjective, ...]


# ----------------------------------------------------------------------
# Spec loading / validation
# ----------------------------------------------------------------------
def _spec_error(index: int, name: object, message: str) -> SloSpecError:
    label = name if isinstance(name, str) and name else "?"
    return SloSpecError(f"objective {index} ({label}): {message}")


def _parse_windows(index: int, name: object, raw: object) -> tuple:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise _spec_error(index, name, "'windows' must be an array")
    windows = []
    for position, entry in enumerate(raw):
        where = f"window {position}"
        if not isinstance(entry, dict):
            raise _spec_error(index, name, f"{where}: not an object")
        ticks = entry.get("ticks")
        if not isinstance(ticks, int) or isinstance(ticks, bool) \
                or ticks < 1:
            raise _spec_error(index, name,
                              f"{where}: 'ticks' must be an integer >= 1")
        burn = entry.get("burn_rate")
        if not isinstance(burn, (int, float)) or isinstance(burn, bool) \
                or burn <= 0:
            raise _spec_error(index, name,
                              f"{where}: 'burn_rate' must be positive")
        severity = entry.get("severity", "page")
        if not isinstance(severity, str) or not severity:
            raise _spec_error(index, name,
                              f"{where}: 'severity' must be a non-empty "
                              f"string")
        windows.append(BurnWindow(ticks=ticks, burn_rate=float(burn),
                                  severity=severity))
    return tuple(windows)


def _parse_objective(index: int, raw: object) -> SloObjective:
    if not isinstance(raw, dict):
        raise _spec_error(index, None, "not an object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise _spec_error(index, name, "'name' must be a non-empty string")
    kind = raw.get("kind")
    if kind not in _KINDS:
        raise _spec_error(index, name,
                          f"'kind' must be one of {list(_KINDS)}, got "
                          f"{kind!r}")
    windows = _parse_windows(index, name, raw.get("windows"))
    if kind == "latency":
        metric = raw.get("metric")
        if not isinstance(metric, str) or not metric:
            raise _spec_error(index, name,
                              "latency objectives need a 'metric' "
                              "histogram selector")
        percentile = raw.get("percentile", 0.99)
        if not isinstance(percentile, (int, float)) \
                or isinstance(percentile, bool) \
                or not 0.0 < percentile < 1.0:
            raise _spec_error(index, name,
                              "'percentile' must be in (0, 1)")
        target = raw.get("target")
        if not isinstance(target, (int, float)) or isinstance(target, bool) \
                or target <= 0:
            raise _spec_error(index, name, "'target' must be positive")
        return SloObjective(name=name, kind=kind, metric=metric,
                            percentile=float(percentile),
                            target=float(target), windows=windows)
    for field in ("bad", "good"):
        if not isinstance(raw.get(field), str) or not raw.get(field):
            raise _spec_error(index, name,
                              f"error_rate objectives need a {field!r} "
                              f"metric selector")
    budget = raw.get("budget")
    if not isinstance(budget, (int, float)) or isinstance(budget, bool) \
            or not 0.0 < budget < 1.0:
        raise _spec_error(index, name, "'budget' must be in (0, 1)")
    return SloObjective(name=name, kind=kind, bad=raw["bad"],
                        good=raw["good"], budget=float(budget),
                        windows=windows)


def load_spec(source: Union[str, pathlib.Path, dict]) -> SloSpec:
    """Parse and validate an :class:`SloSpec` from a JSON file path or
    an already-decoded dict; raises :class:`SloSpecError` with the
    offending objective index on any problem."""
    if isinstance(source, dict):
        payload = source
        origin = "<dict>"
    else:
        path = pathlib.Path(source)
        origin = str(path)
        payload = json.loads(path.read_text())
    if not isinstance(payload, dict):
        raise SloSpecError(f"{origin}: spec top level must be an object")
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise SloSpecError(f"{origin}: spec needs a non-empty 'name'")
    raw_objectives = payload.get("objectives")
    if not isinstance(raw_objectives, list) or not raw_objectives:
        raise SloSpecError(f"{origin}: spec needs a non-empty "
                           f"'objectives' array")
    objectives = tuple(_parse_objective(index, raw)
                       for index, raw in enumerate(raw_objectives))
    names = [objective.name for objective in objectives]
    if len(set(names)) != len(names):
        raise SloSpecError(f"{origin}: duplicate objective names: {names}")
    return SloSpec(name=name, objectives=objectives)


# ----------------------------------------------------------------------
# Snapshot selectors
# ----------------------------------------------------------------------
def _flat_rows(snapshot: dict) -> Iterator[tuple[str, dict]]:
    for component in sorted(snapshot):
        metrics = snapshot[component]
        if not isinstance(metrics, dict):
            continue
        for name in sorted(metrics):
            row = metrics[name]
            if isinstance(row, dict):
                yield f"{component}.{name}", row


def _select_sum(snapshot: dict, pattern: str) -> float:
    """Sum of counter/gauge values whose flattened key matches
    ``pattern`` (iterated in sorted key order — deterministic float
    accumulation)."""
    total = 0.0
    for key, row in _flat_rows(snapshot):
        if row.get("type") in ("counter", "gauge") \
                and fnmatch.fnmatchcase(key, pattern):
            total += float(row.get("value", 0.0))
    return total


def _select_histogram(snapshot: dict, pattern: str) -> Optional[dict]:
    """The exact merge of every histogram row matching ``pattern``, or
    ``None`` when nothing matches."""
    merged: Optional[dict] = None
    for key, row in _flat_rows(snapshot):
        if row.get("type") == "histogram" \
                and fnmatch.fnmatchcase(key, pattern):
            merged = row if merged is None \
                else merge_rows(merged, row, key=key)
    return merged


def histogram_quantile(row: dict, q: float) -> Optional[float]:
    """The ``q``-quantile of a snapshot histogram row, as the upper
    bound of the bucket containing that rank (the overflow bucket
    reports the recorded ``max``).  ``None`` on an empty histogram."""
    counts = list(row.get("counts") or ())
    buckets = list(row.get("buckets") or ())
    total = int(row.get("count", 0))
    if total <= 0 or len(counts) != len(buckets) + 1:
        return None
    rank = max(1, math.ceil(q * total))
    running = 0
    for index, count in enumerate(counts):
        running += count
        if running >= rank:
            if index < len(buckets):
                return float(buckets[index])
            return float(row.get("max", buckets[-1]))
    return float(row.get("max", buckets[-1]))  # pragma: no cover


def _good_bad(objective: SloObjective, snapshot: dict) -> tuple[float,
                                                                float]:
    """Cumulative (good, bad) event totals for burn accounting.

    ``error_rate``: good/bad scalar selector sums.  ``latency``: total
    observations vs observations above the target (conservatively
    counting the partial bucket when the target falls strictly inside
    one — state targets as bucket bounds for exact attribution).
    """
    if objective.kind == "error_rate":
        return (_select_sum(snapshot, objective.good),
                _select_sum(snapshot, objective.bad))
    row = _select_histogram(snapshot, objective.metric)
    if row is None:
        return 0.0, 0.0
    counts = list(row.get("counts") or ())
    buckets = list(row.get("buckets") or ())
    if len(counts) != len(buckets) + 1:
        return 0.0, 0.0
    edge = bisect.bisect_left(buckets, objective.target)
    if edge < len(buckets) and buckets[edge] == objective.target:
        edge += 1
    bad = 0
    for count in counts[edge:]:
        bad += count
    return float(int(row.get("count", 0))), float(bad)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class SloEngine:
    """Feed cumulative fleet snapshots in tick order; collect alerts.

    One instance per evaluation sequence: :func:`evaluate_snapshots`
    feeds a fresh engine the deterministic per-task prefix merges.
    """

    def __init__(self, spec: SloSpec) -> None:
        self.spec = spec
        self.alerts: list = []
        #: Per-objective cumulative (good, bad) series, one entry per
        #: observed tick.
        self._series: dict = {objective.name: []
                              for objective in spec.objectives}
        self._ticks = 0
        #: Highest burn seen per (objective, window ticks).
        self._max_burn: dict = {}

    @property
    def ticks(self) -> int:
        return self._ticks

    def observe(self, snapshot: dict) -> list:
        """Account one fleet snapshot; returns the alerts that fired at
        this tick (also appended to :attr:`alerts`)."""
        tick = self._ticks
        self._ticks += 1
        fired: list = []
        for objective in self.spec.objectives:
            series = self._series[objective.name]
            series.append(_good_bad(objective, snapshot))
            budget = objective.error_budget
            for window in objective.windows:
                start = tick - window.ticks
                base_good, base_bad = series[start] if start >= 0 \
                    else (0.0, 0.0)
                good_delta = series[tick][0] - base_good
                bad_delta = series[tick][1] - base_bad
                if good_delta > 0:
                    rate = bad_delta / good_delta
                elif bad_delta > 0:
                    rate = _BURN_CAP * budget
                else:
                    rate = 0.0
                burn = min(rate / budget, _BURN_CAP) if budget > 0 \
                    else _BURN_CAP
                key = (objective.name, window.ticks)
                if burn > self._max_burn.get(key, 0.0):
                    self._max_burn[key] = burn
                if burn >= window.burn_rate:
                    fired.append({
                        "tick": tick,
                        "objective": objective.name,
                        "window_ticks": window.ticks,
                        "burn_rate": round(burn, 6),
                        "threshold": window.burn_rate,
                        "severity": window.severity,
                    })
        self.alerts.extend(fired)
        return fired

    def _objective_report(self, objective: SloObjective,
                          snapshot: Optional[dict]) -> dict:
        good, bad = (self._series[objective.name][-1]
                     if self._series[objective.name] else (0.0, 0.0))
        report: dict = {
            "name": objective.name,
            "kind": objective.kind,
            "good": round(good, 6),
            "bad": round(bad, 6),
            "alerts": sum(1 for alert in self.alerts
                          if alert["objective"] == objective.name),
            "windows": [
                {"ticks": window.ticks,
                 "threshold": window.burn_rate,
                 "severity": window.severity,
                 "max_burn_rate": round(self._max_burn.get(
                     (objective.name, window.ticks), 0.0), 6)}
                for window in objective.windows
            ],
        }
        budget = objective.error_budget
        rate = bad / good if good > 0 else (0.0 if bad <= 0
                                            else _BURN_CAP * budget)
        if objective.kind == "latency":
            row = _select_histogram(snapshot, objective.metric) \
                if snapshot is not None else None
            value = histogram_quantile(row, objective.percentile) \
                if row is not None else None
            report["data"] = value is not None
            report["percentile"] = objective.percentile
            report["target"] = objective.target
            report["value"] = None if value is None else round(value, 6)
            report["compliant"] = value is None \
                or value <= objective.target
        else:
            report["data"] = good > 0 or bad > 0
            report["budget"] = objective.budget
            report["value"] = round(rate, 9)
            report["compliant"] = rate <= objective.budget
        report["budget_consumed"] = round(min(rate / budget, _BURN_CAP), 6) \
            if budget > 0 else round(_BURN_CAP, 6)
        return report

    def report(self, snapshot: Optional[dict] = None) -> dict:
        """The final structured report (``slo_report.json`` shape);
        ``snapshot`` is the last fleet snapshot, used for latency
        percentile readouts."""
        objectives = [self._objective_report(objective, snapshot)
                      for objective in self.spec.objectives]
        return {
            "spec": self.spec.name,
            "ticks": self._ticks,
            "compliant": all(entry["compliant"] for entry in objectives)
            and not self.alerts,
            "objectives": objectives,
            "alerts": list(self.alerts),
        }


def evaluate_snapshots(spec: SloSpec,
                       snapshots: Sequence[dict]) -> dict:
    """One-shot evaluation: a fresh engine over ``snapshots`` in order
    (each cumulative), returning the structured report.  This is the
    canonical, byte-stable path — identical inputs produce identical
    report bytes."""
    engine = SloEngine(spec)
    last: Optional[dict] = None
    for snapshot in snapshots:
        engine.observe(snapshot)
        last = snapshot
    return engine.report(last)
