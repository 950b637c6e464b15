"""repro.obs — the cross-cutting observability layer.

Three pieces, assembled by :mod:`repro.obs.runtime`:

* :mod:`repro.obs.tracer` — span/event tracing against the simulated
  clock, hooked into the kernel dispatch loop and the RNIC pipeline.
* :mod:`repro.obs.metrics` — counters/gauges/histograms keyed by
  component with deterministic snapshot order.
* :mod:`repro.obs.exporters` — JSONL and Chrome trace-event writers
  plus the validators behind ``python -m repro.obs validate``.
* :mod:`repro.obs.insight` — the analysis layer over exported
  artifacts: :class:`TraceFrame` indexing and ``python -m repro.obs
  report``.  The report's counter verdicts come from the online
  detectors in :mod:`repro.defense.detectors`.

Everything is disabled by default; ``install(trace=..., metrics=...)``
turns it on for the current process (the experiments CLI does this for
``--trace`` / ``--metrics``).  See docs/OBSERVABILITY.md.
"""

from .exporters import (
    validate_chrome_trace,
    validate_metrics_json,
    validate_path,
    validate_paths,
    validate_trace_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_metrics_json,
)
from .insight import TraceFrame, render_report
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .runtime import (
    ObsSession,
    attach_simulator,
    engine_tracer,
    install,
    register_rnic,
    registry,
    session,
    tracer_for,
    uninstall,
)
from .tracer import TraceEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsSession",
    "TraceEvent",
    "TraceFrame",
    "Tracer",
    "attach_simulator",
    "engine_tracer",
    "install",
    "render_report",
    "register_rnic",
    "registry",
    "session",
    "tracer_for",
    "uninstall",
    "validate_chrome_trace",
    "validate_metrics_json",
    "validate_path",
    "validate_paths",
    "validate_trace_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics_json",
]
