"""repro.obs.fleet — the post-batch fleet metrics pass.

After an experiments batch, the per-task ``<name>.metrics.json`` files
are folded once, in sorted task-name order, into the fleet artifacts.
This package holds that pass and everything on top of it:

* :mod:`repro.obs.fleet.merge` — exact, byte-stable snapshot merge
  arithmetic (counters/gauges sum, histograms merge bucket-by-bucket;
  no t-digest approximation);
* :mod:`repro.obs.fleet.aggregator` — :func:`write_fleet_artifacts`
  (``fleet_metrics.json``, ``fleet_snapshots.jsonl`` and
  ``slo_report.json``, byte-identical serial vs ``--jobs``);
* :mod:`repro.obs.fleet.slo` — declarative :class:`SloSpec` objectives
  (latency percentiles, error budgets) with multi-window burn-rate
  alerting via :class:`SloEngine`.

See docs/OBSERVABILITY.md ("Fleet metrics & SLOs") for the artifact
shapes and the determinism contract.
"""

from .aggregator import (
    collect_task_snapshots,
    prefix_merges,
    write_fleet_artifacts,
)
from .merge import (
    FleetMergeError,
    merge_rows,
    merge_snapshots,
)
from .slo import (
    BurnWindow,
    SloEngine,
    SloObjective,
    SloSpec,
    SloSpecError,
    evaluate_snapshots,
    histogram_quantile,
    load_spec,
)

__all__ = [
    "BurnWindow",
    "FleetMergeError",
    "SloEngine",
    "SloObjective",
    "SloSpec",
    "SloSpecError",
    "collect_task_snapshots",
    "evaluate_snapshots",
    "histogram_quantile",
    "load_spec",
    "merge_rows",
    "merge_snapshots",
    "prefix_merges",
    "write_fleet_artifacts",
]
