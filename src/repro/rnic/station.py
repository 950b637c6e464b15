"""Generic FIFO service stations.

Every stage of Figure 3's processing path that is not the translation
unit (Tx/Rx PUs, PCIe DMA engines, wire serializers, arbiter slots) is a
:class:`ServiceStation`: a single server with a ``busy_until`` horizon.
Requests arriving while the server is busy queue behind it — this
queueing is precisely the volatile channel's transmission medium.

Stations also accept a *background utilization* in [0, 1) contributed by
fluid-layer bulk flows (see :mod:`repro.rnic.bandwidth`); discrete
requests are slowed by the standard ``1 / (1 - u)`` M/G/1 inflation so
that heavy bulk traffic visibly lengthens probe latencies.

``admit()`` is on the per-packet hot path (every pipeline stage of every
message), so the class is slotted and the inflation multiplier is cached
when the background utilization changes rather than recomputed per
admit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Cap on fluid-layer utilization as seen by discrete requests: even a
#: saturating bulk flow leaves the probe with a bounded (5x) slowdown,
#: since NICs arbitrate DMA fairly rather than starving small requests.
MAX_BACKGROUND_UTILIZATION = 0.8


class ServiceStation:
    """A single-server FIFO queue with deterministic service times."""

    __slots__ = ("name", "rng", "_busy_until", "_background", "_inflation",
                 "served", "busy_ns", "wait_ns")

    def __init__(self, name: str, rng: Optional[np.random.Generator] = None) -> None:
        self.name = name
        self.rng = rng
        self._busy_until = 0.0
        self._background = 0.0
        self._inflation = 1.0
        self.served = 0
        self.busy_ns = 0.0
        self.wait_ns = 0.0

    @property
    def background_utilization(self) -> float:
        return self._background

    def set_background_utilization(self, utilization: float) -> None:
        """Fluid-layer coupling: fraction of this station consumed by
        bulk flows.  Clamped below 1 to keep service times finite."""
        if utilization < 0.0:
            raise ValueError(f"utilization must be >= 0, got {utilization}")
        self._background = min(utilization, MAX_BACKGROUND_UTILIZATION)
        self._inflation = 1.0 / (1.0 - self._background)

    @property
    def inflation(self) -> float:
        """Service-time multiplier induced by background load."""
        return self._inflation

    @property
    def busy_until(self) -> float:
        return self._busy_until

    def admit(self, now: float, service_ns: float) -> float:
        """Serve a request arriving at ``now``; returns finish time."""
        if service_ns < 0:
            raise ValueError(f"service time must be non-negative, got {service_ns}")
        busy = self._busy_until
        start = now if now > busy else busy
        effective = service_ns * self._inflation
        finish = start + effective
        self._busy_until = finish
        self.served += 1
        self.busy_ns += effective
        self.wait_ns += start - now
        return finish

    def batch_state(self) -> tuple[float, float, float, float]:
        """Snapshot ``(busy_until, inflation, busy_ns, wait_ns)`` for
        the cohort planner (:mod:`repro.rnic.batch`), which replays
        :meth:`admit`'s recurrence on shadow copies; nothing is
        mutated until :meth:`batch_commit`."""
        return self._busy_until, self._inflation, self.busy_ns, self.wait_ns

    def batch_commit(self, busy_until: float, busy_ns: float,
                     wait_ns: float, served: int) -> None:
        """Commit the scalars a cohort plan advanced from this
        station's :meth:`batch_state`.  The planner folds ``busy_ns``
        and ``wait_ns`` left to right in admission order, which keeps
        them bit-identical to ``served`` scalar :meth:`admit` calls."""
        self._busy_until = busy_until
        self.busy_ns = busy_ns
        self.wait_ns = wait_ns
        self.served += served

    def stall_until(self, time: float) -> None:
        """Externally imposed stall: the server may not *start* new
        service before ``time``.  This is how PFC pause frames act on a
        port — transmission halts for the pause quanta, queued work
        resumes afterwards.  A stall never shortens an existing busy
        horizon."""
        if time > self._busy_until:
            self._busy_until = time

    def reset(self) -> None:
        self._busy_until = 0.0
        self.served = 0
        self.busy_ns = 0.0
        self.wait_ns = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Station {self.name} busy_until={self._busy_until:.0f} "
            f"served={self.served} bg={self._background:.2f}>"
        )
