"""Streaming detectors over counter series.

These are the *online* consumers of the telemetry stream: each detector
is fed ``(timestamp, value)`` samples one at a time — the shape a
:class:`~repro.telemetry.monitor.CounterSampler` tick or a registry
collector drain produces — and raises an alarm the moment its decision
statistic crosses threshold.  They model what a deployed counter-based
defense (Pythia-era eviction telemetry, ``ethtool -S`` polling loops)
can actually see, which is the point of the Table I detector columns:
a *persistent* channel modulates durable counters and lights these
detectors up; Ragnar's volatile channels leave every counter series
stationary and sail through.

Three detector families:

* :class:`EwmaDetector` — exponentially weighted moving average with a
  companion EW variance; alarms on samples far outside the smoothed
  band.  Catches bursts and level shifts quickly, forgets slowly.
* :class:`CusumDetector` — two-sided tabular CUSUM on standardized
  residuals against a frozen warm-up baseline; the classic
  change-point detector, sensitive to small persistent shifts.
* :class:`PeriodicityDetector` — windowed autocorrelation (reusing
  :func:`repro.analysis.periodicity.dominant_periods`) that alarms on
  strong periodic modulation, e.g. a covert sender toggling a counter
  at its symbol rate.

All three are deterministic, pure-Python, allocate O(window), and
never read a clock — timestamps come from the caller.  Table I feeds
them per stream through :class:`~repro.defense.service.DetectorBankService`;
the obs run report (:mod:`repro.obs.insight.report`) runs a
:class:`DetectorBank` over each exported counter series.
"""

from __future__ import annotations

import collections
import dataclasses
import math
from typing import Optional, Sequence

from repro.analysis.periodicity import autocorrelation


@dataclasses.dataclass(frozen=True)
class Detection:
    """One detector's verdict over a watched series."""

    detector: str
    flagged: bool
    #: Timestamp of the first alarming sample (None when never flagged).
    first_flag_ts: Optional[float]
    #: Number of alarming samples.
    flags: int
    #: Total samples observed.
    samples: int
    reason: str = ""

    @property
    def flag_rate(self) -> float:
        """Fraction of observed samples in alarm state."""
        return self.flags / self.samples if self.samples else 0.0


class StreamingDetector:
    """Base class: feed samples with :meth:`observe`, read the verdict
    with :meth:`finish`.  Subclasses implement :meth:`_alarm`."""

    name = "streaming"

    def __init__(self) -> None:
        self._samples = 0
        self._flags = 0
        self._first_flag_ts: Optional[float] = None
        self._reason = ""

    def observe(self, ts: float, value: float) -> bool:
        """Consume one sample; returns True when this sample alarms."""
        self._samples += 1
        alarmed = self._alarm(ts, float(value))
        if alarmed:
            self._flags += 1
            if self._first_flag_ts is None:
                self._first_flag_ts = ts
        return alarmed

    def _alarm(self, ts: float, value: float) -> bool:
        raise NotImplementedError

    def finish(self) -> Detection:
        return Detection(
            detector=self.name,
            flagged=self._flags > 0,
            first_flag_ts=self._first_flag_ts,
            flags=self._flags,
            samples=self._samples,
            reason=self._reason,
        )


class EwmaDetector(StreamingDetector):
    """EWMA band monitor: alarm when a sample leaves the smoothed
    ``mean ± k·std`` band.

    The first ``warmup`` samples initialize the mean/variance without
    alarming (a defender always has history on a tenant before judging
    it).  ``min_rel_band`` floors the band at a fraction of the running
    mean so quantization noise on a near-constant series cannot alarm —
    a counter ticking 1000, 1001, 1000 is stationary, not an attack.

    ``min_abs_band`` floors the band *absolutely*: an idle tenant whose
    warm-up is all zeros has zero variance AND zero mean, so both the
    EW band and the relative floor collapse to 0.0 — and a band of
    exactly zero used to be treated as "degenerate, never alarm", which
    silently suppressed the alarm on the very first level shift while
    that shifted sample dragged the baseline toward the attack level (a
    dead zone exactly where a defender most wants sensitivity).  With
    the absolute epsilon floor the band stays positive, so the first
    nonzero sample off an idle baseline alarms and (being alarmed) is
    kept out of the baseline.
    """

    name = "ewma"

    def __init__(self, alpha: float = 0.25, k: float = 5.0,
                 warmup: int = 8, min_rel_band: float = 0.25,
                 min_abs_band: float = 1e-9) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if k <= 0 or warmup < 2:
            raise ValueError("need positive k and warmup >= 2")
        if min_abs_band <= 0.0:
            raise ValueError(
                f"min_abs_band must be positive (it exists to keep a "
                f"degenerate zero baseline alarmable), got {min_abs_band}")
        super().__init__()
        self.alpha = alpha
        self.k = k
        self.warmup = warmup
        self.min_rel_band = min_rel_band
        self.min_abs_band = min_abs_band
        self._mean = 0.0
        self._var = 0.0

    def _alarm(self, ts: float, value: float) -> bool:
        if self._samples <= self.warmup:
            # Welford-style warm-up estimate, no alarms yet
            delta = value - self._mean
            self._mean += delta / self._samples
            self._var += delta * (value - self._mean)
            return False
        if self._samples == self.warmup + 1:
            self._var /= max(self.warmup - 1, 1)
        band = self.k * math.sqrt(self._var)
        band = max(band, self.min_rel_band * abs(self._mean),
                   self.min_abs_band)
        residual = value - self._mean
        alarmed = abs(residual) > band
        if alarmed and not self._reason:
            self._reason = (f"sample {value:.6g} outside "
                            f"{self._mean:.6g} ± {band:.6g}")
        # alarming samples do not pollute the baseline (classic
        # shielded EWMA), so a sustained attack keeps alarming
        if not alarmed:
            self._mean += self.alpha * residual
            self._var = ((1.0 - self.alpha) *
                         (self._var + self.alpha * residual * residual))
        return alarmed


class CusumDetector(StreamingDetector):
    """Two-sided tabular CUSUM on residuals standardized against a
    frozen warm-up baseline.

    After ``warmup`` samples fix ``(mean, std)``, each sample updates
    ``S+ = max(0, S+ + z - k)`` and ``S- = max(0, S- - z - k)``; either
    statistic exceeding ``h`` alarms.  ``k`` is the slack and ``h`` the
    decision interval, both in standard deviations.  ``min_rel_std``
    floors the standardization scale at a fraction of the baseline mean
    (same quantization-noise guard as the EWMA band).
    """

    name = "cusum"

    def __init__(self, k: float = 0.5, h: float = 6.0,
                 warmup: int = 8, min_rel_std: float = 0.05) -> None:
        if k < 0 or h <= 0 or warmup < 2:
            raise ValueError("need k >= 0, h > 0, warmup >= 2")
        super().__init__()
        self.k = k
        self.h = h
        self.warmup = warmup
        self.min_rel_std = min_rel_std
        self._mean = 0.0
        self._m2 = 0.0
        self._std = 0.0
        self._pos = 0.0
        self._neg = 0.0

    def _alarm(self, ts: float, value: float) -> bool:
        if self._samples <= self.warmup:
            delta = value - self._mean
            self._mean += delta / self._samples
            self._m2 += delta * (value - self._mean)
            if self._samples == self.warmup:
                self._std = math.sqrt(self._m2 / (self.warmup - 1))
                self._std = max(self._std,
                                self.min_rel_std * abs(self._mean), 1e-12)
            return False
        z = (value - self._mean) / self._std
        self._pos = max(0.0, self._pos + z - self.k)
        self._neg = max(0.0, self._neg - z - self.k)
        alarmed = self._pos > self.h or self._neg > self.h
        if alarmed:
            if not self._reason:
                side = "upward" if self._pos > self.h else "downward"
                self._reason = (f"{side} shift from baseline "
                                f"{self._mean:.6g} (S={max(self._pos, self._neg):.1f})")
            # reset after alarm so repeated shifts re-trigger instead of
            # saturating (standard CUSUM restart)
            self._pos = self._neg = 0.0
        return alarmed


def periodicity_score(buffer: Sequence[float], min_cov: float,
                      power_of_two_only: bool) -> tuple[float, int]:
    """Score one full window for periodic modulation.

    Returns ``(best autocorrelation score, best lag)`` — ``(0.0, 0)``
    when the window fails the coefficient-of-variation gate (a flat
    series trivially correlates with itself).
    """
    n = len(buffer)
    mean = sum(buffer) / n
    var = sum((v - mean) ** 2 for v in buffer) / n
    if abs(mean) < 1e-12 or math.sqrt(var) / abs(mean) < min_cov:
        return 0.0, 0
    acf = autocorrelation(buffer, unbiased=True)
    limit = max(n // 2, 2)
    best_score, best_lag = 0.0, 0
    for lag in range(2, limit):
        if power_of_two_only and lag & (lag - 1):
            continue
        score = float(acf[lag])
        if score > best_score:
            best_score, best_lag = score, lag
    return best_score, best_lag


class PeriodicityDetector(StreamingDetector):
    """Windowed periodic-modulation detector.

    Keeps the last ``window`` samples; every ``stride`` samples it
    computes the unbiased autocorrelation and alarms when some lag's
    correlation exceeds ``score_threshold`` *and* the window actually
    modulates (coefficient of variation above ``min_cov`` — a flat
    series trivially correlates with itself).  With
    ``power_of_two_only`` the alarm is restricted to lags that are
    powers of two, matching the paper's Section IV-C observation that
    ULI structure repeats in "2's power periodic manners".
    """

    name = "periodicity"

    def __init__(self, window: int = 64, stride: int = 16,
                 score_threshold: float = 0.5, min_cov: float = 0.2,
                 power_of_two_only: bool = False) -> None:
        if window < 8:
            raise ValueError(f"window must be >= 8, got {window}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        super().__init__()
        self.window = window
        self.stride = stride
        self.score_threshold = score_threshold
        self.min_cov = min_cov
        self.power_of_two_only = power_of_two_only
        # deque(maxlen) evicts the oldest sample in O(1); the previous
        # ``del list[0]`` shifted the whole window on every observe
        self._buffer: collections.deque[float] = collections.deque(
            maxlen=window)

    def _alarm(self, ts: float, value: float) -> bool:
        self._buffer.append(value)
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


class DetectorBank:
    """A set of detectors watching one series together."""

    def __init__(self, detectors: Optional[Sequence[StreamingDetector]] = None
                 ) -> None:
        self.detectors = list(detectors) if detectors is not None else [
            EwmaDetector(), CusumDetector(), PeriodicityDetector(),
        ]
        names = [d.name for d in self.detectors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate detector names: {names}")

    def observe(self, ts: float, value: float) -> None:
        for detector in self.detectors:
            detector.observe(ts, value)

    def results(self) -> dict[str, Detection]:
        return {d.name: d.finish() for d in self.detectors}


def run_series(detector: StreamingDetector, times: Sequence[float],
               values: Sequence[float]) -> Detection:
    """Feed a whole series through one detector and return its verdict."""
    if len(times) != len(values):
        raise ValueError(f"series length mismatch: {len(times)} times "
                         f"vs {len(values)} values")
    for ts, value in zip(times, values):
        detector.observe(ts, value)
    return detector.finish()
