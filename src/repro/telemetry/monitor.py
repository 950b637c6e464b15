"""Bandwidth and counter samplers."""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.obs import runtime as _obs
from repro.rnic.bandwidth import FluidFlow
from repro.rnic.rnic import RNIC
from repro.sim.kernel import Simulator
from repro.sim.units import MILLISECONDS, SECONDS


@dataclasses.dataclass(frozen=True)
class Sample:
    """One timestamped measurement."""

    time: float
    value: float


class BandwidthMonitor:
    """Samples the achieved goodput of one fluid flow.

    This is the covert receiver's view in the Figure 9 channel and the
    attacker's view in the Figure 12 fingerprinting attack: a client
    continuously measures the bandwidth of its own small flow.
    """

    def __init__(
        self,
        sim: Simulator,
        rnic: RNIC,
        flow: FluidFlow,
        interval_ns: float = 10 * MILLISECONDS,
    ) -> None:
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive, got {interval_ns}")
        self.sim = sim
        self.rnic = rnic
        self.flow = flow
        self.interval_ns = interval_ns
        self.samples: list[Sample] = []
        self._running = False
        # the pending _tick's cancellation handle; stop() must cancel it
        # or a stop->start cycle leaves TWO tick chains alive, doubling
        # the sample rate
        self._handle = None
        self._obs = _obs.tracer_for(sim)

    def start(self) -> None:
        if self._running:
            raise RuntimeError("monitor already running")
        self._running = True
        self._handle = self.sim.schedule(self.interval_ns, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self.sim.cancel(self._handle)
            self._handle = None

    def _tick(self) -> None:
        if not self._running:
            return
        bw = self.rnic.fluid_bandwidth(self.flow)
        self.samples.append(Sample(self.sim.now, bw))
        if self._obs is not None:
            self._obs.counter(f"{self.rnic.name}.flow_bandwidth",
                              {"bps": bw}, category="telemetry",
                              component="telemetry.bandwidth")
        self._handle = self.sim.schedule(self.interval_ns, self._tick)

    @property
    def values(self) -> list[float]:
        return [s.value for s in self.samples]

    @property
    def times(self) -> list[float]:
        return [s.time for s in self.samples]


class CounterSampler:
    """Polls a NIC counter snapshot, reporting per-interval rates.

    Equivalent to running ``ethtool -S`` in a loop and differencing —
    the reverse-engineering methodology of Section IV-A, and the
    Grain-I defense's data source.

    Explicit ``keys`` must name byte or packet counters (suffix
    ``bytes``/``packets``): the rate math differs (bits/s vs 1/s) and a
    key it cannot classify would otherwise be silently misreported.
    """

    def __init__(
        self,
        sim: Simulator,
        rnic: RNIC,
        interval_ns: float = 100 * MILLISECONDS,
        keys: Optional[list[str]] = None,
    ) -> None:
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive, got {interval_ns}")
        if keys is not None:
            bad = [k for k in keys if not k.endswith(("bytes", "packets"))]
            if bad:
                raise ValueError(
                    f"cannot classify counter keys {bad}: keys must end "
                    f"in 'bytes' or 'packets' to pick a rate unit"
                )
        self.sim = sim
        self.rnic = rnic
        self.interval_ns = interval_ns
        self.keys = keys
        self.rates: list[dict] = []
        self._last: Optional[dict] = None
        self._running = False
        # see BandwidthMonitor._handle: cancel-on-stop keeps restart
        # from doubling the chain (and from racing two ticks on _last)
        self._handle = None
        self._obs = _obs.tracer_for(sim)

    def start(self) -> None:
        if self._running:
            raise RuntimeError("sampler already running")
        self._running = True
        self._last = self.rnic.counters.snapshot()
        self._handle = self.sim.schedule(self.interval_ns, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self.sim.cancel(self._handle)
            self._handle = None

    def _tick(self) -> None:
        if not self._running:
            return
        snap = self.rnic.counters.snapshot()
        seconds = self.interval_ns / SECONDS
        rates = {"time": self.sim.now}
        keys = self.keys if self.keys is not None else [
            k for k in snap if k.endswith(("bytes", "packets"))
        ]
        for key in keys:
            delta = snap.get(key, 0) - self._last.get(key, 0)
            if key.endswith("bytes"):
                rates[key.replace("bytes", "bps")] = delta * 8.0 / seconds
            else:
                rates[key.replace("packets", "pps")] = delta / seconds
        self.rates.append(rates)
        if self._obs is not None:
            self._obs.counter(
                f"{self.rnic.name}.rates",
                {k: v for k, v in rates.items() if k != "time"},
                category="telemetry", component="telemetry.counters")
        self._last = snap
        self._handle = self.sim.schedule(self.interval_ns, self._tick)

    def series(self, key: str) -> list[float]:
        """The sampled series for one rate key (e.g. ``"rx_bps"``)."""
        return [r[key] for r in self.rates if key in r]
