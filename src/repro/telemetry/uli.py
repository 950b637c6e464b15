"""The ULI probe: the paper's core measurement instrument.

Section IV-C defines the Unit Latency Increase as
``ULI = Lat_total / (len_sq + 1)``, where ``Lat_total`` is the
post-to-completion latency and ``len_sq`` the number of WQEs queued
ahead at post time.  The probe keeps a constant send-queue depth by
re-posting on every completion, cycling through a fixed target pattern
(e.g. alternating two addresses, as in Figures 5–8).
"""

from __future__ import annotations

import dataclasses
import numbers
from typing import Optional, Sequence

import numpy as np

from repro.host.cluster import RDMAConnection
from repro.rnic.closed_loop import try_closed_loop
from repro.verbs.mr import MemoryRegion


@dataclasses.dataclass(frozen=True)
class ProbeTarget:
    """One element of the probe's access pattern."""

    mr: MemoryRegion
    offset: int
    size: int = 64

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError(f"offset must be non-negative, got {self.offset}")
        if not self.mr.contains(self.mr.addr + self.offset, self.size):
            raise ValueError(
                f"probe [{self.offset}, +{self.size}) escapes MR of "
                f"length {self.mr.length}"
            )


class ULIProbe:
    """Pipelined RDMA Read prober at a fixed queue depth."""

    def __init__(
        self,
        conn: RDMAConnection,
        targets: Sequence[ProbeTarget],
        depth: Optional[int] = None,
    ) -> None:
        if not targets:
            raise ValueError("need at least one probe target")
        self.conn = conn
        self.targets = list(targets)
        max_wr = conn.qp.cap.max_send_wr
        self.depth = depth if depth is not None else max_wr
        if not 1 <= self.depth <= max_wr:
            raise ValueError(
                f"depth {self.depth} outside 1..{max_wr} (QP max_send_wr)"
            )
        self._cursor = 0

    def _post_next(self) -> None:
        target = self.targets[self._cursor % len(self.targets)]
        self._cursor += 1
        self.conn.post_read(target.mr, target.offset, target.size)

    def measure(self, num_samples: int, warmup: int = 16) -> np.ndarray:
        """Collect ``num_samples`` ULI values (after ``warmup`` extras).

        Runs the simulation inline until the last sample's completion,
        leaving ``depth`` reads in flight for the next call.  When the
        probe runs alone (quiescent simulator, lossless fault-free RC
        path, no DDIO, no observers, an empty CQ) the whole loop is
        planned as one recurrence (:mod:`repro.rnic.closed_loop`);
        otherwise — other actors (victim processes, covert senders) have
        events pending, say — it steps the kernel, which interleaves
        everyone's events.  Both give the same samples and leave the
        same simulator state.
        """
        _check_count("num_samples", num_samples, 1)
        _check_count("warmup", warmup, 0)
        count = warmup + num_samples
        ntargets = len(self.targets)
        start = self._cursor % ntargets
        ulis = try_closed_loop(
            self.conn, self.targets[start:] + self.targets[:start],
            self.depth, count)
        if ulis is not None:
            self._cursor += self.depth + count
            return np.asarray(ulis[warmup:])
        # CQEs already waiting are the first samples, and each re-posts
        # a read: count them against the depth
        qp = self.conn.qp
        while qp.outstanding_send + len(qp.send_cq) < self.depth:
            self._post_next()
        samples: list[float] = []
        remaining_warmup = warmup
        while len(samples) < num_samples:
            wc = self.conn.await_completions(1)[0]
            if not wc.ok:
                raise RuntimeError(f"probe completion failed: {wc.status}")
            if remaining_warmup > 0:
                remaining_warmup -= 1
            else:
                samples.append(wc.unit_latency_increase)
            self._post_next()
        # drain our own outstanding probes' effect bookkeeping is left
        # to the caller; the QP stays primed for the next measure()
        return np.asarray(samples)

    def measure_mean(self, num_samples: int, warmup: int = 16) -> float:
        return float(self.measure(num_samples, warmup).mean())


def _check_count(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
