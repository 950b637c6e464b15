"""repro.obs.insight — the consumption side of the obs layer.

The parent package produces the artifacts (Tracer spans,
MetricsRegistry snapshots, JSONL/Chrome exporters); this package
consumes them:

* :mod:`repro.obs.insight.frame` — :class:`TraceFrame`, an indexed
  view over an exported trace: span trees, per-component latency
  summaries, counter time series, station occupancy, derived ULI
  series.
* :mod:`repro.obs.insight.report` — ``python -m repro.obs report``:
  a deterministic markdown run report (same seed ⇒ same bytes).

Analysis primitives are reused from :mod:`repro.analysis`
(:func:`~repro.analysis.periodicity.dominant_periods`,
:mod:`~repro.analysis.stats`) rather than duplicated here.
"""

from .frame import TraceFrame
from .report import render_report

__all__ = [
    "TraceFrame",
    "render_report",
]
