"""repro.obs.insight — the consumption side of the obs layer.

PR 4 built the producers (Tracer spans, MetricsRegistry snapshots,
JSONL/Chrome exporters); this package consumes them:

* :mod:`repro.obs.insight.frame` — :class:`TraceFrame`, an indexed
  view over an exported trace: span trees, per-component latency
  summaries, counter time series, station occupancy, derived ULI
  series.
* :mod:`repro.obs.insight.report` — ``python -m repro.obs report``:
  a deterministic markdown run report (same seed ⇒ same bytes).
* :mod:`repro.obs.insight.diff` — ``python -m repro.obs diff``:
  run-to-run comparison with configurable tolerances, nonzero exit
  on regression (the check.sh gate hook).

Analysis primitives are reused from :mod:`repro.analysis`
(:func:`~repro.analysis.periodicity.dominant_periods`,
:mod:`~repro.analysis.stats`) rather than duplicated here.
"""

from .diff import DiffResult, diff_runs
from .frame import TraceFrame
from .report import render_report

__all__ = [
    "DiffResult",
    "TraceFrame",
    "diff_runs",
    "render_report",
]
