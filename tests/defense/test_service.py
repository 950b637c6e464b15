"""The stream registry behind the online defender: per-stream detector
suites fed by slot handle, batch input checks, and the one
Detection -> OnlineVerdict combination."""

import numpy as np
import pytest

from repro.defense import CounterTrace, DetectorBankService, OnlineCounterDefense
from repro.defense.detectors import EwmaDetector, StreamingDetector


def _times(count, start=1000.0, step=1000.0):
    return [start + step * i for i in range(count)]


def _watch(values, stream_id):
    return OnlineCounterDefense().watch(CounterTrace(
        tenant=stream_id, key=stream_id, times_ns=tuple(_times(len(values))),
        values=tuple(values)))


def test_shape_mismatch_rejected():
    service = DetectorBankService()
    slot = service.admit("s")
    with pytest.raises(ValueError, match="shape mismatch"):
        service.ingest_slots([slot, slot], [1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="shape mismatch"):
        service.ingest_slots([slot], [1.0, 2.0], [1.0, 2.0])


def test_unknown_slot_rejected():
    service = DetectorBankService()
    slot = service.admit("s")
    with pytest.raises(KeyError, match="unknown slot"):
        service.ingest_slots([slot, slot + 1], [1.0, 2.0], [1.0, 1.0])
    with pytest.raises(KeyError, match="unknown slot"):
        service.ingest_slots([-1], [1.0], [1.0])
    with pytest.raises(KeyError):
        service.verdict("never-admitted")


def test_non_increasing_timestamps_rejected():
    service = DetectorBankService()
    first, second = service.admit("a"), service.admit("b")
    # two streams may share a timestamp; one stream may not repeat it
    service.ingest_slots([first, second], [5.0, 5.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        service.ingest_slots([first], [5.0], [1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        service.ingest_slots([second, second], [7.0, 6.0], [1.0, 1.0])
    # a rejected batch applies nothing, not even its valid prefix
    with pytest.raises(ValueError, match="strictly increasing"):
        service.ingest_slots([first, first], [8.0, 8.0], [1.0, 1.0])
    assert "over 1 samples" in service.verdict("a").reason
    service.ingest_slots([first], [8.0], [1.0])
    assert "over 2 samples" in service.verdict("a").reason


def test_admit_rejects_duplicates():
    service = DetectorBankService()
    assert service.admit("a") == 0 and service.admit("b") == 1
    with pytest.raises(ValueError, match="already admitted"):
        service.admit("a")
    with pytest.raises(ValueError, match="duplicate detector names"):
        DetectorBankService((EwmaDetector, EwmaDetector))
    with pytest.raises(ValueError):
        DetectorBankService(())


def test_interleaved_streams_match_watch():
    """Streams of different lengths advanced tick by tick through one
    registry give each stream the verdict it gets when watched alone."""
    rng = np.random.default_rng(11)
    streams = {}
    for index in range(12):
        length = int(rng.integers(70, 130))
        values = float(rng.uniform(50.0, 150.0)) + rng.normal(0.0, 2.0, length)
        values[length // 2:] += float(rng.choice([0.0, 40.0, 120.0]))
        streams[f"s{index:02d}"] = values.tolist()
    service = DetectorBankService()
    slots = {stream_id: service.admit(stream_id, tenant=stream_id)
             for stream_id in sorted(streams)}
    for tick in range(max(len(v) for v in streams.values())):
        active = [s for s in sorted(streams) if tick < len(streams[s])]
        service.ingest_slots([slots[s] for s in active],
                             [1000.0 * (tick + 1)] * len(active),
                             [streams[s][tick] for s in active])
    flagged = 0
    for stream_id, values in streams.items():
        got = service.verdict(stream_id)
        assert got == _watch(values, stream_id)
        flagged += got.flagged
    assert 0 < flagged < len(streams)


def test_one_batch_equals_sample_at_a_time():
    values = [100.0] * 16 + [300.0] * 16
    times = _times(len(values))
    whole, single = DetectorBankService(), DetectorBankService()
    slot = whole.admit("s")
    whole.ingest_slots([slot] * len(values), times, values)
    slot = single.admit("s")
    for ts, value in zip(times, values):
        single.ingest_slots([slot], [ts], [value])
    assert whole.verdict("s") == single.verdict("s")
    assert whole.verdict("s").flagged


class _AlarmAt(StreamingDetector):
    """Alarms on every sample from ``ts`` on."""

    def __init__(self, name, ts):
        super().__init__()
        self.name = name
        self.ts = ts

    def _alarm(self, ts, value):
        if ts >= self.ts and not self._reason:
            self._reason = f"{self.name} at {ts}"
        return ts >= self.ts


def test_verdict_combination_earliest_alarm_then_name():
    times = _times(10)  # 1000 .. 10000
    service = DetectorBankService((
        lambda: _AlarmAt("late", 9000.0),
        lambda: _AlarmAt("zeta", 4000.0),
        lambda: _AlarmAt("alpha", 4000.0),
        lambda: _AlarmAt("never", 1e9),
    ))
    slot = service.admit("counter", tenant="tenant-a")
    service.ingest_slots([slot] * len(times), times, [0.0] * len(times))
    verdict = service.verdict("counter")
    assert verdict.flagged and verdict.tenant == "tenant-a"
    assert verdict.detector == "alpha"  # tie on time breaks on name
    assert verdict.detection_latency_ns == 3000.0  # from the first sample
    assert verdict.flag_rate == 0.7  # the highest rate that fired
    assert verdict.reason == "alpha at 4000.0"
    assert set(verdict.detections) == {"late", "zeta", "alpha", "never"}
    assert not verdict.detections["never"].flagged


def test_quiet_verdict_names_the_stream():
    service = DetectorBankService()
    service.admit("rx_pps", tenant="t")
    verdict = service.verdict("rx_pps")
    assert not verdict.flagged and verdict.detection_latency_ns is None
    assert verdict.reason == "rx_pps series stationary over 0 samples"
