"""The canonical fleet pass: per-task metrics -> ``fleet_metrics.json``.

After a batch, :func:`write_fleet_artifacts` builds the fleet view once,
from the per-task ``<name>.metrics.json`` files in sorted task-name
order: ``fleet_metrics.json``, the merged whole-run snapshot.  Serial
runs, ``--jobs N`` runs and reruns of the same seed produce
byte-identical fleet metrics — the same discipline as every other run
artifact (tests/experiments/test_fleet_parallel.py).
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterable, Optional

from .merge import merge_snapshots


def collect_task_snapshots(run_dir, names: Iterable[str]) -> dict:
    """Per-task metrics snapshots of the tasks ``names`` in a run
    directory, keyed by task name; a task without a readable
    ``<name>.metrics.json`` object is left out."""
    run_dir = pathlib.Path(run_dir)
    snapshots: dict = {}
    for name in sorted(set(names)):
        path = run_dir / f"{name}.metrics.json"
        if not path.exists():
            continue
        payload = json.loads(path.read_text())
        if isinstance(payload, dict):
            snapshots[name] = payload
    return snapshots


def write_fleet_artifacts(run_dir, names: Iterable[str]) -> Optional[dict]:
    """Write ``fleet_metrics.json`` for a finished run; returns
    ``{"tasks", "paths", "snapshot"}`` or ``None`` when the run
    directory holds no per-task metrics for ``names``.

    A ``fleet_metrics.json`` already in ``run_dir`` is removed first, so
    an earlier run's file never outlives a rerun that merges nothing.
    Deterministic by construction: tasks are folded in sorted name order
    from their committed ``<name>.metrics.json`` bytes, so serial and
    ``--jobs`` runs (and reruns) of one seed agree byte-for-byte.
    """
    metrics_path = pathlib.Path(run_dir) / "fleet_metrics.json"
    metrics_path.unlink(missing_ok=True)
    per_task = collect_task_snapshots(run_dir, names)
    if not per_task:
        return None
    tasks = sorted(per_task)
    merged = merge_snapshots(per_task[name] for name in tasks)
    metrics_path.write_text(
        json.dumps(merged, indent=2, sort_keys=True) + "\n")
    return {"tasks": tasks, "paths": [metrics_path], "snapshot": merged}
