"""Deterministic merge arithmetic for per-task metric snapshots.

The fleet pass folds the per-task
:class:`~repro.obs.metrics.MetricsRegistry` snapshots of a finished run
into one fleet view.  Both operations are pure functions over the JSON
snapshot shape (``{component: {name: row}}``):

* :func:`merge_rows` — merge two rows of one ``(component, name)``;
* :func:`merge_snapshots` — fold per-task snapshots into one fleet
  snapshot: counters and gauges sum (this repo's collector gauges are
  cumulative NIC counters — see docs/OBSERVABILITY.md), histograms merge
  *exactly* bucket-by-bucket (no t-digest approximation; mismatched
  bucket ladders are a hard :class:`FleetMergeError`).

Everything iterates in sorted ``(component, name)`` order and returns
sorted dicts, so ``json.dumps(..., sort_keys=True)`` of a merge is
byte-stable regardless of input ordering — the same determinism contract
the registry's own :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
holds.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional


class FleetMergeError(ValueError):
    """Two snapshots disagree structurally (type or bucket mismatch)."""


def _rows(snapshot: dict) -> Iterator[tuple[str, str, dict]]:
    """Sorted ``(component, name, row)`` triples of a snapshot."""
    for component in sorted(snapshot):
        metrics = snapshot[component]
        if not isinstance(metrics, dict):
            continue
        for name in sorted(metrics):
            row = metrics[name]
            if isinstance(row, dict):
                yield component, name, row


def _sorted_copy(rows: dict) -> dict:
    """Rebuild ``{(component, name): row}`` as a sorted nested dict."""
    out: dict = {}
    for component, name in sorted(rows):
        out.setdefault(component, {})[name] = rows[(component, name)]
    return out


# ----------------------------------------------------------------------
# Fleet merge (many tasks -> one view)
# ----------------------------------------------------------------------
def merge_rows(a: dict, b: dict, key: str = "?") -> dict:
    """Merge two metric rows of the same ``(component, name)``.

    Counter and gauge values sum; histograms require identical bucket
    ladders and merge exactly (counts/count/sum add, min/max combine,
    mean recomputed).  ``key`` names the metric in error messages.
    """
    kind_a, kind_b = a.get("type"), b.get("type")
    if kind_a != kind_b:
        raise FleetMergeError(
            f"metric {key}: cannot merge {kind_a!r} with {kind_b!r}")
    if kind_a in ("counter", "gauge"):
        return {"type": kind_a,
                "value": float(a.get("value", 0.0))
                + float(b.get("value", 0.0))}
    if kind_a != "histogram":
        raise FleetMergeError(f"metric {key}: unknown metric type "
                              f"{kind_a!r}")
    buckets_a, buckets_b = a.get("buckets"), b.get("buckets")
    if list(buckets_a or ()) != list(buckets_b or ()):
        raise FleetMergeError(
            f"metric {key}: histogram bucket mismatch "
            f"({buckets_a} vs {buckets_b}); exact merge needs identical "
            f"ladders")
    counts_a = list(a.get("counts") or ())
    counts_b = list(b.get("counts") or ())
    if len(counts_a) != len(counts_b):
        raise FleetMergeError(
            f"metric {key}: histogram counts length mismatch "
            f"({len(counts_a)} vs {len(counts_b)})")
    merged = {
        "type": "histogram",
        "count": int(a.get("count", 0)) + int(b.get("count", 0)),
        "sum": float(a.get("sum", 0.0)) + float(b.get("sum", 0.0)),
        "buckets": list(buckets_a or ()),
        "counts": [ca + cb for ca, cb in zip(counts_a, counts_b)],
    }
    mins = [row["min"] for row in (a, b) if "min" in row]
    maxes = [row["max"] for row in (a, b) if "max" in row]
    if merged["count"]:
        if mins:
            merged["min"] = min(mins)
        if maxes:
            merged["max"] = max(maxes)
        merged["mean"] = merged["sum"] / merged["count"]
    return merged


def _normalized(row: dict) -> dict:
    """A single row passed through the merge arithmetic (so one-shard
    fleets serialize identically to multi-shard ones)."""
    kind = row.get("type")
    if kind in ("counter", "gauge"):
        return {"type": kind, "value": float(row.get("value", 0.0))}
    if kind == "histogram":
        out = {
            "type": "histogram",
            "count": int(row.get("count", 0)),
            "sum": float(row.get("sum", 0.0)),
            "buckets": list(row.get("buckets") or ()),
            "counts": list(row.get("counts") or ()),
        }
        if out["count"]:
            if "min" in row:
                out["min"] = row["min"]
            if "max" in row:
                out["max"] = row["max"]
            out["mean"] = out["sum"] / out["count"]
        return out
    raise FleetMergeError(f"unknown metric type {kind!r}")


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Fold per-task snapshots into one fleet snapshot.

    Order-independent for ints and structurally, and deterministic for
    float sums as long as the caller folds in a fixed order — the fleet
    pass always merges in sorted task-name order (see
    :func:`repro.obs.fleet.aggregator.write_fleet_artifacts`).
    """
    rows: dict = {}
    for snapshot in snapshots:
        for component, name, row in _rows(snapshot):
            key = (component, name)
            before: Optional[dict] = rows.get(key)
            if before is None:
                rows[key] = _normalized(row)
            else:
                rows[key] = merge_rows(before, row,
                                       key=f"{component}.{name}")
    return _sorted_copy(rows)
