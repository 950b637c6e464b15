"""The canonical fleet pass: per-task metrics -> fleet artifacts.

After a batch, :func:`write_fleet_artifacts` builds the fleet view once,
from the per-task ``<name>.metrics.json`` files in sorted task-name
order: ``fleet_metrics.json`` (the merged whole-run snapshot),
``fleet_snapshots.jsonl`` (one ``"final"`` line per task, prefix
merges), and ``slo_report.json`` when a spec is given.  Serial,
``--jobs N``, rerun and ``--resume`` runs of the same seed produce
byte-identical fleet artifacts — the same discipline as every other run
artifact (tests/experiments/test_fleet_parallel.py).
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterable, Optional

from .merge import merge_snapshots
from .slo import SloSpec, evaluate_snapshots

#: Every file the fleet pass writes into a run directory.
FLEET_ARTIFACTS = ("fleet_snapshots.jsonl", "fleet_metrics.json",
                   "slo_report.json")

def collect_task_snapshots(run_dir, names: Optional[Iterable[str]] = None
                           ) -> dict:
    """Per-task metrics snapshots from a run directory, keyed by task
    name.  With ``names`` given only those tasks are read; otherwise
    every ``<name>.metrics.json`` (excluding ``fleet_metrics.json``)
    counts."""
    run_dir = pathlib.Path(run_dir)
    snapshots: dict = {}
    if names is None:
        candidates = sorted(path.name[:-len(".metrics.json")]
                            for path in run_dir.glob("*.metrics.json")
                            if path.name != "fleet_metrics.json")
    else:
        candidates = sorted(set(names))
    for name in candidates:
        path = run_dir / f"{name}.metrics.json"
        if not path.exists():
            continue
        payload = json.loads(path.read_text())
        if isinstance(payload, dict):
            snapshots[name] = payload
    return snapshots


def prefix_merges(per_task: dict) -> list:
    """The cumulative fleet snapshots of a run, one per task in sorted
    name order: entry ``i`` merges the first ``i + 1`` tasks.  These
    are the ticks the SLO engine evaluates."""
    tasks = sorted(per_task)
    return [merge_snapshots([per_task[name] for name in tasks[:index + 1]])
            for index in range(len(tasks))]


def write_fleet_artifacts(run_dir,
                          names: Optional[Iterable[str]] = None,
                          spec: Optional[SloSpec] = None
                          ) -> Optional[dict]:
    """Write the canonical fleet artifacts for a finished run; returns
    ``{"tasks", "paths", "snapshot", "report"}`` or ``None`` when the
    run directory holds no per-task metrics for ``names``.

    Fleet artifacts already in ``run_dir`` are removed first, so an
    earlier run's files never outlive a rerun that merges nothing (or
    runs without a spec).  Deterministic by construction: tasks are
    folded in sorted name order from their committed
    ``<name>.metrics.json`` bytes, so serial and ``--jobs`` runs (and
    reruns) of one seed agree byte-for-byte on ``fleet_metrics.json``,
    ``fleet_snapshots.jsonl``, and ``slo_report.json``.
    """
    run_dir = pathlib.Path(run_dir)
    for artifact in FLEET_ARTIFACTS:
        (run_dir / artifact).unlink(missing_ok=True)
    per_task = collect_task_snapshots(run_dir, names)
    if not per_task:
        return None
    tasks = sorted(per_task)
    snapshots = prefix_merges(per_task)
    lines = [json.dumps({"rev": index + 1, "kind": "final", "task": task,
                         "tasks_done": index + 1, "metrics": snapshot},
                        sort_keys=True)
             for index, (task, snapshot) in enumerate(zip(tasks, snapshots))]
    merged = snapshots[-1]
    snapshots_path = run_dir / "fleet_snapshots.jsonl"
    snapshots_path.write_text("\n".join(lines) + "\n")
    metrics_path = run_dir / "fleet_metrics.json"
    metrics_path.write_text(
        json.dumps(merged, indent=2, sort_keys=True) + "\n")
    paths = [snapshots_path, metrics_path]
    report = None
    if spec is not None:
        report = evaluate_snapshots(spec, snapshots)
        report_path = run_dir / "slo_report.json"
        report_path.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
        paths.append(report_path)
    return {"tasks": tasks, "paths": paths, "snapshot": merged,
            "report": report}
