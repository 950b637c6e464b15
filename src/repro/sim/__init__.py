"""Discrete-event simulation kernel used by every substrate in ``repro``.

The kernel is deliberately small: a monotonic nanosecond clock, a binary
heap of scheduled callbacks and seedable random streams.  All RNIC,
fabric and host models are built as callbacks on top of this module.
"""

from repro.sim.event import PyEventCore
from repro.sim.kernel import KERNEL_ENGINE, Simulator, SimulationError
from repro.sim.random import RandomStreams
from repro.sim.units import (
    GBPS,
    GIBIBYTE,
    KIBIBYTE,
    MEBIBYTE,
    MICROSECONDS,
    MILLISECONDS,
    NANOSECONDS,
    SECONDS,
    bits_to_bytes,
    bytes_to_bits,
    gbps,
    rate_to_ns_per_byte,
    transfer_time_ns,
)

__all__ = [
    "KERNEL_ENGINE",
    "PyEventCore",
    "Simulator",
    "SimulationError",
    "RandomStreams",
    "NANOSECONDS",
    "MICROSECONDS",
    "MILLISECONDS",
    "SECONDS",
    "KIBIBYTE",
    "MEBIBYTE",
    "GIBIBYTE",
    "GBPS",
    "gbps",
    "bytes_to_bits",
    "bits_to_bytes",
    "rate_to_ns_per_byte",
    "transfer_time_ns",
]
