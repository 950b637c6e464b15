"""Measurement instruments: what the attacker (and defender) can see.

* :class:`BandwidthMonitor` — periodic sampling of a fluid flow's
  achieved goodput (what a client sees from its own completion rate);
* :class:`CounterSampler` — periodic ``ethtool -S``-style snapshots of
  NIC counters, yielding bps/pps series (the defender's Grain-I view);
* :class:`ULIProbe` — the paper's Unit Latency Increase instrument
  (Section IV-C): pipelined one-sided reads at a fixed queue depth,
  reporting ``Lat_total / (len_sq + 1)`` per completion.
"""

from repro.telemetry.monitor import (
    BandwidthMonitor,
    CounterSampler,
    Sample,
)
from repro.telemetry.uli import ULIProbe, ProbeTarget

__all__ = [
    "BandwidthMonitor",
    "CounterSampler",
    "Sample",
    "ULIProbe",
    "ProbeTarget",
]
