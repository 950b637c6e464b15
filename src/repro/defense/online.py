"""Online counter-stream defense: what a telemetry-watching defender
actually sees.

The deployed defenses in Table I judge *aggregate* tenant profiles.
Real counter-based monitoring (Pythia-era eviction telemetry, sRDMA's
accounting, an ``ethtool -S`` polling loop) is stronger than that: it
watches the counter *time series* and can catch modulation — the
covert signalling itself — even when every aggregate looks benign.
This module packages the streaming detectors of
:mod:`repro.defense.detectors`, fed through the stream registry
:class:`~repro.defense.service.DetectorBankService`, as that defender:

* a persistent channel (Pythia) must flip durable counters every
  symbol, so its eviction/miss series is a square wave the
  change-point detectors light up on;
* the Grain-I priority channel modulates per-TC byte counters, so a
  bytes-rate series shows the toggling (the paper's "partly
  detectable" row);
* Ragnar's volatile ULI channels modulate *which* address the sender
  reads, never *how much* — every counter series stays stationary and
  all three detectors stay silent.

Table I (`repro.experiments.table1`) feeds each attack's
defender-visible series through :class:`OnlineCounterDefense` and
reports the verdicts as detection-latency / flag-rate columns — the
paper's "counters don't see volatile channels" claim as a measured
artifact.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

from repro.defense.detectors import StreamingDetector
from repro.defense.service import DetectorBankService, OnlineVerdict


@dataclasses.dataclass(frozen=True)
class CounterTrace:
    """One defender-visible counter series for one tenant window."""

    tenant: str
    #: Which counter the samples came from (e.g. ``"evictions_per_s"``).
    key: str
    times_ns: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times_ns) != len(self.values):
            raise ValueError(
                f"series length mismatch: {len(self.times_ns)} times vs "
                f"{len(self.values)} values")
        if len(self.times_ns) < 2:
            raise ValueError("a counter trace needs at least two samples")
        if any(b <= a for a, b in zip(self.times_ns, self.times_ns[1:])):
            raise ValueError("sample times must be strictly increasing")


class OnlineCounterDefense:
    """Streams a tenant's counter series through a detector suite.

    ``repro.defense``-compatible: construct once, call :meth:`watch`
    per tenant window; each call builds fresh detector instances from
    the configured factories so tenants never share state.
    """

    name = "counter-online"

    def __init__(self, detector_factories: Optional[
            Sequence[Callable[[], StreamingDetector]]] = None) -> None:
        # the registry defaults and validates the suite
        self.detector_factories = DetectorBankService(
            detector_factories).detector_factories

    def watch(self, trace: CounterTrace) -> OnlineVerdict:
        """Run every detector over the series; earliest alarm wins."""
        service = DetectorBankService(self.detector_factories)
        slot = service.admit(trace.key, tenant=trace.tenant)
        service.ingest_slots([slot] * len(trace.values), trace.times_ns,
                             trace.values)
        return service.verdict(trace.key)


def sample_counts(times_ns: Sequence[float], window_start: float,
                  window_end: float, intervals: int
                  ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Bucket raw event timestamps into a per-interval count series —
    the CounterSampler view of a completion stream.

    Returns (interval end times, counts per interval); events outside
    the window are dropped.
    """
    if intervals < 2:
        raise ValueError(f"need at least 2 intervals, got {intervals}")
    if window_end <= window_start:
        raise ValueError("window must have positive span")
    width = (window_end - window_start) / intervals
    counts = [0.0] * intervals
    for ts in times_ns:
        if not window_start <= ts < window_end:
            continue
        counts[min(int((ts - window_start) / width), intervals - 1)] += 1.0
    edges = tuple(window_start + width * (i + 1) for i in range(intervals))
    return edges, tuple(counts)
