"""Event-driven pipelined clients and window decoding.

The ULI channels need a sender and a receiver issuing reads
*concurrently* against one server.  :class:`PipelinedReader` is an
event-driven client: it keeps a constant number of reads outstanding,
re-posting on every completion, with the target of each read supplied
by a callable (the sender's callable consults the current covert bit).

``decode_windows`` performs the receiver-side demodulation: ULI samples
are bucketed into symbol windows by completion timestamp, averaged, and
thresholded with 1-D 2-means.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Optional, Sequence

import numpy as np

from repro.analysis.clustering import two_means
from repro.host.cluster import RDMAConnection
from repro.telemetry.uli import ProbeTarget
from repro.verbs.wr import WorkCompletion


class PipelinedReader:
    """Keeps ``depth`` RDMA Reads outstanding on one connection.

    ULI values are recorded in ``samples`` as ``(timestamp, uli)``
    pairs, where the timestamp is the *midpoint* of the request's
    post-to-completion interval: a request's latency accumulates over
    its whole queue residency (roughly ``depth`` service cycles), so the
    midpoint is the least-biased single timestamp for demodulating a
    signal that changes over time.  The reader owns the connection's CQ
    callback.
    """

    def __init__(
        self,
        conn: RDMAConnection,
        next_target: Callable[[], ProbeTarget],
        depth: Optional[int] = None,
        halt_on_error: bool = False,
    ) -> None:
        self.conn = conn
        self.next_target = next_target
        max_wr = conn.qp.cap.max_send_wr
        self.depth = depth if depth is not None else max_wr
        if not 1 <= self.depth <= max_wr:
            raise ValueError(f"depth {self.depth} outside 1..{max_wr}")
        self.samples: list[tuple[float, float]] = []
        self.completed = 0
        #: With ``halt_on_error`` the reader absorbs failed completions
        #: (retry-budget exhaustion under injected faults) by going
        #: silent instead of raising — the channel degrades, the
        #: experiment survives.
        self.halt_on_error = halt_on_error
        self.errors = 0
        self.halted = False
        self._running = False
        if conn.cq.on_completion is not None:
            raise RuntimeError("connection CQ already has a completion callback")
        conn.cq.on_completion = self._on_completion

    def start(self) -> None:
        """Prime the pipeline; must be called before the sim runs."""
        if self._running:
            raise RuntimeError("reader already started")
        self._running = True
        self._prime()

    def stop(self) -> None:
        """Stop re-posting; in-flight reads drain naturally."""
        self._running = False

    def resume(self) -> None:
        """Re-prime the pipeline after a :meth:`stop` (on/off traffic)."""
        self._running = True
        self._prime()

    def _prime(self) -> None:
        while self.conn.qp.outstanding_send < self.depth:
            self._post_one()

    def _post_one(self) -> None:
        target = self.next_target()
        self.conn.post_read(target.mr, target.offset, target.size)

    def _on_completion(self, wc: WorkCompletion) -> None:
        self.conn.cq.poll(1)  # consume the entry we are handling
        if not wc.ok:
            if not self.halt_on_error:
                raise RuntimeError(f"pipelined read failed: {wc.status}")
            self.errors += 1
            self.halted = True
            self._running = False
            return
        self.completed += 1
        midpoint = 0.5 * (wc.post_time + wc.complete_time)
        self.samples.append((midpoint, wc.unit_latency_increase))
        if self._running:
            self._post_one()

    def samples_after(self, t: float) -> list[tuple[float, float]]:
        return [(ts, v) for ts, v in self.samples if ts >= t]


def winsorize(
    samples: Sequence[tuple[float, float]],
    multiple: float = 5.0,
) -> list[tuple[float, float]]:
    """Clip extreme sample values to ``median + multiple * IQR``.

    RC retransmissions turn a lost frame into a retry-timeout latency
    spike tens of times larger than the covert signal; one such sample
    would dominate its window mean AND bleed into the rolling-mean
    baseline.  Clipping (rather than dropping) keeps the sample count
    per window stable.
    """
    if multiple <= 0:
        raise ValueError(f"multiple must be positive, got {multiple}")
    if not samples:
        return []
    values = np.asarray([v for _, v in samples])
    q25, median, q75 = np.percentile(values, (25, 50, 75))
    iqr = max(q75 - q25, 1e-9)
    ceiling = median + multiple * iqr
    return [(t, min(v, ceiling)) for t, v in samples]


def detrend(
    samples: Sequence[tuple[float, float]],
    half_window_ns: float,
) -> list[tuple[float, float]]:
    """Subtract a centered rolling mean from each sample.

    Receiver-side baseline tracking: ambient tenants starting/stopping
    shift the ULI baseline by far more than one covert bit, but on
    slower timescales; removing a rolling mean wider than a few symbols
    keeps the symbol-rate signal while cancelling the baseline steps.
    """
    if half_window_ns <= 0:
        raise ValueError(f"half window must be positive, got {half_window_ns}")
    if not samples:
        return []
    times = np.asarray([t for t, _ in samples])
    values = np.asarray([v for _, v in samples])
    order = np.argsort(times)
    times, values = times[order], values[order]
    prefix = np.concatenate([[0.0], np.cumsum(values)])
    lo = np.searchsorted(times, times - half_window_ns, side="left")
    hi = np.searchsorted(times, times + half_window_ns, side="right")
    local_mean = (prefix[hi] - prefix[lo]) / np.maximum(hi - lo, 1)
    return list(zip(times.tolist(), (values - local_mean).tolist()))


def window_means(
    samples: Sequence[tuple[float, float]],
    start: float,
    period: float,
    count: int,
) -> np.ndarray:
    """Mean sample value per symbol window ``[start + k*period, ...)``.

    Windows with no samples inherit the previous window's mean (a
    receiver would treat a silent window as an erasure; inheriting is
    the simplest concealment and counts as an error if wrong).
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    # a flat pass over the pairs; np.asarray would probe each tuple
    frame = np.fromiter(itertools.chain.from_iterable(samples),
                        dtype=np.float64,
                        count=2 * len(samples)).reshape(-1, 2)
    # numpy's float floor division is Python's (an fmod-based divmod)
    window = (frame[:, 0] - start) // period
    inside = (window >= 0) & (window < count)
    index = window[inside].astype(np.intp)
    # bincount adds each window's values in sample order, as a loop does
    sums = np.bincount(index, weights=frame[inside, 1], minlength=count)
    counts = np.bincount(index, minlength=count)
    filled = counts > 0
    means = np.divide(sums, counts, out=np.zeros(count), where=filled)
    # a window with no samples repeats the last mean before it (0.0 at
    # the start)
    last = np.maximum.accumulate(np.where(filled, np.arange(count), -1))
    return np.where(last >= 0, means[last], 0.0)


def decode_windows(
    samples: Sequence[tuple[float, float]],
    start: float,
    period: float,
    count: int,
    high_is_one: bool = True,
    relock: Optional["RelockConfig"] = None,
) -> list[int]:
    """Demodulate: per-window means, 2-means threshold, bit decisions.

    With a :class:`RelockConfig` the frame is decoded in segments whose
    symbol phase is re-estimated as it goes (see :func:`relock_decode`),
    which tolerates clock drift between sender and receiver; without
    one, a single phase locked at ``start`` must hold for the whole
    frame.
    """
    if relock is not None:
        bits, _ = relock_decode(
            samples, start, period, count,
            high_is_one=high_is_one, config=relock,
        )
        return bits
    means = window_means(samples, start, period, count)
    _, _, threshold = two_means(means)
    if high_is_one:
        return [1 if m > threshold else 0 for m in means]
    return [0 if m > threshold else 1 for m in means]


@dataclasses.dataclass(frozen=True)
class RelockConfig:
    """Parameters of segment-wise symbol-phase re-locking.

    Lockstep channels derive the symbol period from a warm-up estimate
    of the receiver's completion rate; injected faults (pause storms,
    loss bursts) change that rate mid-frame, so the true symbol
    boundaries *drift* away from the phase locked on the preamble.
    Re-estimating the phase every ``segment_bits`` symbols, within a
    bounded window around the previous estimate, tracks the drift.
    """

    #: Symbols decoded per phase estimate; shorter tracks faster drift
    #: but each estimate sees fewer windows and is noisier.
    segment_bits: int = 32
    #: Half-width of the per-segment search window, in symbols.  Bounds
    #: how fast a drift can be tracked (and how far a noisy estimate
    #: can run away).
    max_step_symbols: float = 0.5
    #: Candidate shifts evaluated per segment.
    steps: int = 11

    def __post_init__(self) -> None:
        if self.segment_bits < 4:
            raise ValueError("segments must cover at least 4 symbols")
        if self.max_step_symbols <= 0.0:
            raise ValueError("max step must be positive")
        if self.steps < 3:
            raise ValueError("need at least 3 candidate shifts")


def relock_decode(
    samples: Sequence[tuple[float, float]],
    start: float,
    period: float,
    count: int,
    high_is_one: bool = True,
    config: RelockConfig = RelockConfig(),
    initial_shift: float = 0.0,
) -> tuple[list[int], list[float]]:
    """Decode ``count`` symbols with segment-wise phase re-locking.

    Each segment's phase is chosen blindly: among candidate shifts
    centred on the previous segment's estimate, keep the one whose
    window means have the largest spread (a mis-phased bucketing blends
    adjacent symbols and regresses every mean toward the middle, so
    spread is maximal at the true boundaries).  Thresholding is global
    — one 2-means split over all segments — so a quiet segment cannot
    invent its own threshold.

    Returns ``(bits, shifts)`` where ``shifts`` holds the per-segment
    phase estimates (ns, relative to ``start``); feed them to
    :func:`estimate_drift` to quantify the clock skew.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    means = np.empty(count)
    shifts: list[float] = []
    shift = initial_shift
    half = config.max_step_symbols * period
    for seg_start in range(0, count, config.segment_bits):
        seg_count = min(config.segment_bits, count - seg_start)
        base = start + seg_start * period
        best_shift, best_spread = shift, -np.inf
        for candidate in np.linspace(shift - half, shift + half, config.steps):
            seg_means = window_means(samples, base + candidate, period, seg_count)
            spread = float(np.std(seg_means))
            if spread > best_spread:
                best_spread, best_shift = spread, float(candidate)
        shift = best_shift
        shifts.append(shift)
        means[seg_start:seg_start + seg_count] = window_means(
            samples, base + shift, period, seg_count
        )
    _, _, threshold = two_means(means)
    if high_is_one:
        bits = [1 if m > threshold else 0 for m in means]
    else:
        bits = [0 if m > threshold else 1 for m in means]
    return bits, shifts


def estimate_drift(
    shifts: Sequence[float], segment_bits: int, period: float
) -> float:
    """Clock-drift rate implied by per-segment phase estimates.

    Least-squares slope of phase shift against elapsed time, i.e. the
    dimensionless skew between the sender's and receiver's effective
    symbol clocks (1e-3 = the phase slips one full symbol every 1000
    symbols).  Returns 0 when fewer than two segments exist.
    """
    if segment_bits <= 0 or period <= 0.0:
        raise ValueError("segment_bits and period must be positive")
    if len(shifts) < 2:
        return 0.0
    times = np.arange(len(shifts), dtype=np.float64) * segment_bits * period
    slope = np.polyfit(times, np.asarray(shifts, dtype=np.float64), 1)[0]
    return float(slope)
