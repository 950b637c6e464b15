"""The online counter-stream defense: modulation flagged, stationary
series silent."""

import pytest

from repro.defense import (
    CounterTrace,
    OnlineCounterDefense,
    sample_counts,
)
from repro.defense.detectors import EwmaDetector


def _trace(values, tenant="t0", key="rx_pps", step=1000.0):
    return CounterTrace(
        tenant=tenant, key=key,
        times_ns=tuple(step * (i + 1) for i in range(len(values))),
        values=tuple(float(v) for v in values))


def test_counter_trace_validation():
    with pytest.raises(ValueError):
        CounterTrace("t", "k", (1.0, 2.0), (1.0,))
    with pytest.raises(ValueError):
        CounterTrace("t", "k", (1.0,), (1.0,))
    with pytest.raises(ValueError):
        CounterTrace("t", "k", (2.0, 1.0), (1.0, 1.0))


def test_toggling_series_is_flagged_with_latency():
    defense = OnlineCounterDefense()
    verdict = defense.watch(_trace([100.0] * 16 + [900.0] * 16))
    assert verdict.flagged and bool(verdict)
    assert verdict.detector
    # alarm at the 17th sample (ts 17000), window starts at ts 1000
    assert verdict.detection_latency_ns == pytest.approx(16000.0)
    assert verdict.flag_rate > 0.0
    assert verdict.reason
    assert set(verdict.detections) == {"ewma", "cusum", "periodicity"}


def test_stationary_series_stays_silent():
    defense = OnlineCounterDefense()
    verdict = defense.watch(_trace([500.0] * 64))
    assert not verdict.flagged and not bool(verdict)
    assert verdict.detector == ""
    assert verdict.detection_latency_ns is None
    assert "stationary" in verdict.reason


def test_fresh_detectors_per_watch():
    """One alarming tenant must not poison the next tenant's baseline."""
    defense = OnlineCounterDefense()
    assert defense.watch(_trace([100.0] * 16 + [900.0] * 16)).flagged
    assert not defense.watch(_trace([500.0] * 64)).flagged


def test_custom_detector_suite():
    defense = OnlineCounterDefense([lambda: EwmaDetector(k=3.0)])
    verdict = defense.watch(_trace([100.0] * 16 + [900.0] * 16))
    assert verdict.flagged
    assert verdict.detector == "ewma"
    with pytest.raises(ValueError):
        OnlineCounterDefense([])


def test_sample_counts_buckets_and_drops():
    times = [5.0, 15.0, 16.0, 95.0, 150.0, -2.0]  # last two out of window
    edges, counts = sample_counts(times, 0.0, 100.0, 10)
    assert edges == tuple(10.0 * (i + 1) for i in range(10))
    assert counts[0] == 1.0
    assert counts[1] == 2.0
    assert counts[9] == 1.0
    assert sum(counts) == 4.0
    with pytest.raises(ValueError):
        sample_counts(times, 0.0, 100.0, 1)
    with pytest.raises(ValueError):
        sample_counts(times, 100.0, 100.0, 4)
