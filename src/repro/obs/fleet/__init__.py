"""repro.obs.fleet — the post-batch fleet metrics pass.

After an experiments batch, the per-task ``<name>.metrics.json`` files
are folded once, in sorted task-name order, into ``fleet_metrics.json``:

* :mod:`repro.obs.fleet.merge` — exact, byte-stable snapshot merge
  arithmetic (counters/gauges sum, histograms merge bucket-by-bucket;
  no t-digest approximation);
* :mod:`repro.obs.fleet.aggregator` — :func:`write_fleet_artifacts`
  (``fleet_metrics.json``, byte-identical serial vs ``--jobs``).

See docs/OBSERVABILITY.md ("Fleet metrics") for the artifact shape and
the determinism contract.
"""

from .aggregator import (
    collect_task_snapshots,
    write_fleet_artifacts,
)
from .merge import (
    FleetMergeError,
    merge_rows,
    merge_snapshots,
)

__all__ = [
    "FleetMergeError",
    "collect_task_snapshots",
    "merge_rows",
    "merge_snapshots",
    "write_fleet_artifacts",
]
