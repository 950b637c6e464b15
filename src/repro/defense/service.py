"""The online defender's stream registry.

:class:`DetectorBankService` holds one scalar detector suite
(:mod:`repro.defense.detectors`) per admitted counter stream.  Streams
are admitted with :meth:`~DetectorBankService.admit`, fed batches of
``(slot, timestamp, value)`` samples with
:meth:`~DetectorBankService.ingest_slots`, and read out with
:meth:`~DetectorBankService.verdict`, which combines the per-detector
:class:`~repro.defense.detectors.Detection`\\ s into one
:class:`OnlineVerdict`.  That combination is written only here:
:class:`~repro.defense.online.OnlineCounterDefense` (and through it
Table I) reads its verdicts from this registry.

The registry never reads a clock; timestamps come from the caller.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

from repro.defense.detectors import (
    CusumDetector,
    Detection,
    DetectorBank,
    EwmaDetector,
    PeriodicityDetector,
    StreamingDetector,
)

#: Default detector suite factories (fresh instances per stream).
DEFAULT_DETECTORS: tuple[Callable[[], StreamingDetector], ...] = (
    EwmaDetector,
    CusumDetector,
    PeriodicityDetector,
)


@dataclasses.dataclass(frozen=True)
class OnlineVerdict:
    """The combined outcome of watching one counter stream."""

    tenant: str
    flagged: bool
    #: Name of the first detector to alarm ("" when none did).
    detector: str
    #: Sim-time from the stream's first sample to the first alarm
    #: (None if never).
    detection_latency_ns: Optional[float]
    #: Highest per-detector alarm rate over the window.
    flag_rate: float
    reason: str = ""
    #: Every detector's full verdict, keyed by detector name.
    detections: dict[str, Detection] = dataclasses.field(
        default_factory=dict)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.flagged


@dataclasses.dataclass
class _Stream:
    key: str
    tenant: str
    bank: DetectorBank
    samples: int = 0
    first_ts: Optional[float] = None
    last_ts: float = float("-inf")


class DetectorBankService:
    """Per-stream detector suites, fed by slot handle.

    ``detector_factories`` are zero-argument callables building one
    detector each; every admitted stream gets fresh instances, so
    streams never share state.
    """

    def __init__(self, detector_factories: Optional[
            Sequence[Callable[[], StreamingDetector]]] = None) -> None:
        self.detector_factories = tuple(
            detector_factories if detector_factories is not None
            else DEFAULT_DETECTORS)
        if not self.detector_factories:
            raise ValueError("need at least one detector factory")
        self._bank()  # reject duplicate detector names up front
        self._streams: list[_Stream] = []
        self._slots: dict[str, int] = {}

    def _bank(self) -> DetectorBank:
        return DetectorBank([factory() for factory in self.detector_factories])

    def admit(self, stream_id: str, tenant: str = "") -> int:
        """Register one stream (``stream_id`` names its counter in the
        verdict's reason); returns its slot handle."""
        if stream_id in self._slots:
            raise ValueError(f"stream {stream_id!r} already admitted")
        slot = self._slots[stream_id] = len(self._streams)
        self._streams.append(_Stream(stream_id, tenant, self._bank()))
        return slot

    def ingest_slots(self, slots: Sequence[int], ts: Sequence[float],
                     values: Sequence[float]) -> None:
        """Feed one batch: sample ``i`` is ``(ts[i], values[i])`` on
        stream ``slots[i]``.  A slot may repeat; its samples are taken
        in batch order and their timestamps must strictly increase.
        The whole batch is checked before any sample is applied."""
        if not len(slots) == len(ts) == len(values):
            raise ValueError(
                f"batch shape mismatch: {len(slots)} slots, "
                f"{len(ts)} timestamps, {len(values)} values")
        last: dict[int, float] = {}
        for slot, sample_ts in zip(slots, ts):
            if not 0 <= slot < len(self._streams):
                raise KeyError(f"batch references unknown slot {slot}")
            previous = last.get(slot, self._streams[slot].last_ts)
            if not sample_ts > previous:
                raise ValueError(
                    f"sample times must be strictly increasing per "
                    f"stream: slot {slot} got ts {sample_ts} after "
                    f"{previous}")
            last[slot] = sample_ts
        for slot, sample_ts, value in zip(slots, ts, values):
            stream = self._streams[slot]
            if stream.first_ts is None:
                stream.first_ts = float(sample_ts)
            stream.last_ts = float(sample_ts)
            stream.samples += 1
            stream.bank.observe(float(sample_ts), float(value))

    def verdict(self, stream_id: str) -> OnlineVerdict:
        """The stream's combined verdict: the earliest alarm wins, ties
        broken on detector name; ``flag_rate`` is the highest alarm
        rate among the detectors that fired."""
        stream = self._streams[self._slots[stream_id]]
        detections = stream.bank.results()
        flagged = [d for d in detections.values() if d.flagged]
        if not flagged:
            return OnlineVerdict(
                tenant=stream.tenant, flagged=False, detector="",
                detection_latency_ns=None, flag_rate=0.0,
                reason=f"{stream.key} series stationary over "
                       f"{stream.samples} samples",
                detections=detections)
        first = min(flagged, key=lambda d: (d.first_flag_ts, d.detector))
        assert first.first_flag_ts is not None
        assert stream.first_ts is not None
        return OnlineVerdict(
            tenant=stream.tenant, flagged=True, detector=first.detector,
            detection_latency_ns=first.first_flag_ts - stream.first_ts,
            flag_rate=max(d.flag_rate for d in flagged),
            reason=first.reason,
            detections=detections)
