"""Streaming detectors: alarms on modulation, silence on stationarity."""

import pytest

from repro.defense.detectors import (
    CusumDetector,
    DetectorBank,
    EwmaDetector,
    PeriodicityDetector,
    run_series,
)


def _series(values):
    return list(range(len(values))), [float(v) for v in values]


def test_ewma_flags_level_shift_after_warmup():
    values = [100.0] * 16 + [300.0] * 8
    detection = run_series(EwmaDetector(), *_series(values))
    assert detection.flagged
    assert detection.first_flag_ts == 16  # the first shifted sample
    assert detection.reason


def test_ewma_silent_on_flat_and_on_quantization_noise():
    flat = run_series(EwmaDetector(), *_series([100.0] * 32))
    assert not flat.flagged
    # a counter ticking 1000/1001 is stationary, not an attack: the
    # relative band floor absorbs quantization even though std ~ 0.5
    ticking = run_series(
        EwmaDetector(), *_series([1000, 1001] * 16))
    assert not ticking.flagged


def test_ewma_shielded_baseline_keeps_alarming():
    """Alarming samples must not drag the baseline toward the attack
    level, so a sustained shift keeps flagging (shielded EWMA)."""
    values = [100.0] * 16 + [300.0] * 16
    detection = run_series(EwmaDetector(), *_series(values))
    assert detection.flags == 16


def test_cusum_catches_small_persistent_shift():
    """A +1.5-sigma drift is inside the EWMA band but CUSUM integrates
    it to an alarm — the classic change-point case."""
    base = [100.0, 102.0] * 8              # warmup: mean 101, std ~ 5.2 (floor)
    drifted = [112.0] * 24                  # ~ +2 floored sigma, persistent
    times, values = _series(base + drifted)
    assert not run_series(EwmaDetector(k=6.0), times, values).flagged
    detection = run_series(CusumDetector(), times, values)
    assert detection.flagged
    assert "shift" in detection.reason


def test_cusum_resets_after_alarm_and_retriggers():
    base = [100.0] * 8
    shift = [200.0] * 8
    times, values = _series(base + shift + shift)
    detection = run_series(CusumDetector(), times, values)
    assert detection.flagged
    assert detection.flags >= 2  # restart re-accumulates, re-alarms


def test_periodicity_flags_square_wave_not_flat():
    square = ([10.0] * 8 + [30.0] * 8) * 8
    detection = run_series(PeriodicityDetector(), *_series(square))
    assert detection.flagged
    assert "lag" in detection.reason
    flat = run_series(PeriodicityDetector(), *_series([10.0] * 128))
    assert not flat.flagged  # CoV gate: flat trivially self-correlates


def test_periodicity_power_of_two_restriction():
    """With ``power_of_two_only`` a period-12 square wave (lags 12, 24:
    not powers of two) stays silent, while period 16 still alarms."""
    period12 = ([10.0] * 6 + [30.0] * 6) * 12
    times, values = _series(period12)
    assert run_series(PeriodicityDetector(), times, values).flagged
    assert not run_series(
        PeriodicityDetector(power_of_two_only=True), times, values).flagged
    period16 = ([10.0] * 8 + [30.0] * 8) * 9
    assert run_series(PeriodicityDetector(power_of_two_only=True),
                      *_series(period16)).flagged


def test_detection_bookkeeping_and_flag_rate():
    detector = EwmaDetector()
    times, values = _series([100.0] * 16 + [300.0] * 4)
    detection = run_series(detector, times, values)
    assert detection.samples == 20
    assert detection.flags == 4
    assert detection.flag_rate == pytest.approx(0.2)
    assert detection.detector == "ewma"


def test_parameter_validation():
    with pytest.raises(ValueError):
        EwmaDetector(alpha=0.0)
    with pytest.raises(ValueError):
        EwmaDetector(warmup=1)
    with pytest.raises(ValueError):
        CusumDetector(h=0.0)
    with pytest.raises(ValueError):
        PeriodicityDetector(window=4)
    with pytest.raises(ValueError):
        PeriodicityDetector(stride=0)
    with pytest.raises(ValueError):
        run_series(EwmaDetector(), [1.0, 2.0], [1.0])


def test_bank_runs_all_and_rejects_duplicates():
    bank = DetectorBank()
    for ts, value in zip(*_series([100.0] * 16 + [300.0] * 16)):
        bank.observe(ts, value)
    results = bank.results()
    assert set(results) == {"ewma", "cusum", "periodicity"}
    assert results["ewma"].flagged and results["cusum"].flagged
    with pytest.raises(ValueError):
        DetectorBank([EwmaDetector(), EwmaDetector()])
