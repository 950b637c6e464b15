"""Seeded, scenario-driven fault injection.

Composes with the discrete-event kernel: link-level fault models hook
into :class:`repro.fabric.network.Network`, the pause-storm injector
stalls RNIC wire stations, and the RNR-pressure workload drives the
transport's RNR NAK path.  All randomness flows through named
``sim.random`` streams so fault-injected runs replay bit-identically.
"""

from repro.faults.models import GilbertElliott, LinkFlap
from repro.faults.plan import (
    SCENARIOS,
    FaultPlan,
    PauseStorm,
    PauseStormInjector,
    RnrPressure,
    RnrPressureClient,
    get_scenario,
)

__all__ = [
    "FaultPlan",
    "GilbertElliott",
    "LinkFlap",
    "PauseStorm",
    "PauseStormInjector",
    "RnrPressure",
    "RnrPressureClient",
    "SCENARIOS",
    "get_scenario",
]
