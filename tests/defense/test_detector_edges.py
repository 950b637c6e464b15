"""Detector edge cases: degenerate baselines, restart behaviour,
multi-series combination, and sampling-window boundaries.

The first two tests are regression tests for real bugs:

* the EWMA *dead zone* — an idle tenant's zero-variance, zero-mean
  warm-up collapsed the alarm band to exactly 0.0, and a ``band > 0``
  guard then suppressed the alarm on the very first level shift while
  that sample polluted the baseline;
* ``watch_all`` picked its "earliest" alarm by comparing per-trace
  ``detection_latency_ns`` values, which are relative to each trace's
  own window start — wrong whenever series start at different times,
  and nondeterministic on ties.
"""

import pytest

from repro.defense import (
    CounterTrace,
    OnlineCounterDefense,
    sample_counts,
)
from repro.defense.detectors import (
    CusumDetector,
    DetectorBank,
    EwmaDetector,
    PeriodicityDetector,
    periodicity_score,
    run_series,
)


def _series(values):
    return [float(i) for i in range(len(values))], [float(v) for v in values]


def _trace(values, tenant="t0", key="k", start=1000.0, step=1000.0):
    return CounterTrace(
        tenant=tenant, key=key,
        times_ns=tuple(start + step * i for i in range(len(values))),
        values=tuple(float(v) for v in values))


# ----------------------------------------------------------------------
# EWMA dead zone (regression)
# ----------------------------------------------------------------------
def test_ewma_idle_then_active_dead_zone():
    """An idle tenant (all-zero warm-up) must alarm on the very first
    nonzero sample: zero variance AND zero mean used to collapse the
    band to 0.0, which the old ``band > 0`` guard read as 'never
    alarm' — exactly where a defender most wants sensitivity."""
    values = [0.0] * 12 + [50.0] * 6
    detection = run_series(EwmaDetector(), *_series(values))
    assert detection.flagged
    assert detection.first_flag_ts == 12.0  # the first level shift
    # shielded baseline: every shifted sample keeps alarming, so the
    # attack level never polluted the idle baseline
    assert detection.flags == 6


def test_ewma_idle_then_tiny_activity_still_alarms():
    """The epsilon floor is absolute, so even a sub-unit blip off a
    degenerate zero baseline is a residual the detector can see."""
    values = [0.0] * 16 + [0.5] * 4
    detection = run_series(EwmaDetector(), *_series(values))
    assert detection.flagged
    assert detection.first_flag_ts == 16.0


def test_ewma_min_abs_band_validation():
    with pytest.raises(ValueError):
        EwmaDetector(min_abs_band=0.0)
    with pytest.raises(ValueError):
        EwmaDetector(min_abs_band=-1.0)


# ----------------------------------------------------------------------
# Constant / degenerate baselines
# ----------------------------------------------------------------------
def test_constant_series_every_detector_silent():
    times, values = _series([7.7] * 96)
    bank = DetectorBank()
    for ts, value in zip(times, values):
        bank.observe(ts, value)
    for name, detection in bank.results().items():
        assert not detection.flagged, name
        assert detection.flags == 0 and detection.samples == 96


def test_constant_zero_series_silent():
    """All-zero forever is idle, not an attack: the epsilon floor must
    not turn a flat zero series into alarms."""
    times, values = _series([0.0] * 64)
    bank = DetectorBank()
    for ts, value in zip(times, values):
        bank.observe(ts, value)
    assert not any(d.flagged for d in bank.results().values())


def test_cusum_zero_baseline_flags_first_shift():
    """A zero-mean warm-up floors the standardization scale at 1e-12,
    so the first shifted sample standardizes to an enormous z and
    alarms immediately instead of dividing by zero."""
    values = [0.0] * 8 + [1.0] * 4
    detection = run_series(CusumDetector(), *_series(values))
    assert detection.flagged
    assert detection.first_flag_ts == 8.0


# ----------------------------------------------------------------------
# CUSUM restart
# ----------------------------------------------------------------------
def test_cusum_post_alarm_restart_retriggers_periodically():
    """After an alarm both CUSUM statistics reset, so a *sustained*
    shift re-accumulates and re-alarms on a fixed cadence instead of
    saturating into one sticky alarm.  +3 floored-sigma with k=0.5
    accumulates 2.5 sigma/sample against h=6: alarm every 3rd sample."""
    values = [100.0] * 8 + [115.0] * 24
    detector = CusumDetector()
    alarm_indices = [index for index, (ts, value)
                     in enumerate(zip(*_series(values)))
                     if detector.observe(float(ts), value)]
    assert alarm_indices == [10, 13, 16, 19, 22, 25, 28, 31]
    assert detector.finish().flags == 8


# ----------------------------------------------------------------------
# watch_all combination (regression)
# ----------------------------------------------------------------------
def test_watch_all_judges_absolute_time_not_relative_latency():
    """Series windows that start at different times: the series whose
    alarm fires first on the shared sim clock must win, even when the
    other's *relative* latency is smaller."""
    defense = OnlineCounterDefense()
    # alarms at its 17th sample: absolute ts 117_000, latency 16_000
    late_window = _trace([100.0] * 16 + [900.0] * 16,
                         tenant="late-window", key="late",
                         start=101_000.0)
    # alarms at its 25th sample: absolute ts 25_000, latency 24_000
    early_window = _trace([100.0] * 24 + [900.0] * 8,
                          tenant="early-window", key="early",
                          start=1_000.0)
    late = defense.watch(late_window)
    early = defense.watch(early_window)
    assert late.detection_latency_ns < early.detection_latency_ns
    verdict = defense.watch_all([late_window, early_window])
    assert verdict.tenant == "early-window"
    assert verdict.detection_latency_ns == pytest.approx(24_000.0)


def test_watch_all_tie_breaks_deterministically_on_key():
    """Identical series in identical windows alarm at the same absolute
    time with the same detector; the counter key must break the tie
    the same way regardless of input order."""
    defense = OnlineCounterDefense()
    values = [100.0] * 16 + [900.0] * 16
    first = _trace(values, tenant="tenant-a", key="aaa_bytes")
    second = _trace(values, tenant="tenant-b", key="bbb_bytes")
    forward = defense.watch_all([first, second])
    backward = defense.watch_all([second, first])
    assert forward.tenant == backward.tenant == "tenant-a"


# ----------------------------------------------------------------------
# Periodicity buffer (perf fix: deque ring, O(1) eviction)
# ----------------------------------------------------------------------
class _ListBufferPeriodicity(PeriodicityDetector):
    """The pre-fix O(window)-shift buffer, as an equivalence oracle."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._buffer = []  # plain list, del [0] eviction

    def _alarm(self, ts, value):
        self._buffer.append(value)
        if len(self._buffer) > self.window:
            del self._buffer[0]
        if len(self._buffer) < self.window or self._samples % self.stride:
            return False
        best_score, best_lag = periodicity_score(
            self._buffer, self.min_cov, self.power_of_two_only)
        if best_score > self.score_threshold:
            if not self._reason:
                self._reason = (f"periodic modulation at lag {best_lag} "
                                f"(acf {best_score:.2f})")
            return True
        return False


@pytest.mark.parametrize("seed", [0, 1])
def test_periodicity_deque_matches_list_reference(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    square = (([10.0] * 8 + [30.0] * 8) * 10)
    noisy = (100.0 + rng.normal(0.0, 5.0, 160)).tolist()
    ramp = (np.arange(160) % 24 * 3.0 + 50.0).tolist()
    for values in (square, noisy, ramp):
        fast = PeriodicityDetector()
        reference = _ListBufferPeriodicity()
        times, series = _series(values)
        fast_alarms = [fast.observe(ts, v) for ts, v in zip(times, series)]
        ref_alarms = [reference.observe(ts, v)
                      for ts, v in zip(times, series)]
        assert fast_alarms == ref_alarms
        assert fast.finish() == reference.finish()


# ----------------------------------------------------------------------
# sample_counts boundaries
# ----------------------------------------------------------------------
def test_sample_counts_boundary_events():
    """Half-open window [start, end): an event exactly at window_end is
    dropped, exactly at window_start counted, and just below
    window_end lands in the last bucket (not one past it)."""
    times = [0.0, 100.0, 99.999999, 10.0, 20.0]
    edges, counts = sample_counts(times, 0.0, 100.0, 10)
    assert sum(counts) == 4.0           # ts=100.0 == window_end dropped
    assert counts[0] == 1.0             # ts=0.0 == window_start kept
    assert counts[9] == 1.0             # just-below-end clamps into last
    # an event exactly on an interior bucket edge opens the next bucket
    assert counts[1] == 1.0 and counts[2] == 1.0


def test_sample_counts_all_events_outside_window():
    edges, counts = sample_counts([-5.0, 200.0], 0.0, 100.0, 4)
    assert sum(counts) == 0.0
    assert len(edges) == len(counts) == 4
