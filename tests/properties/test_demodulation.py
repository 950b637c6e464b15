"""Property tests for the covert receivers' demodulation pipeline."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.covert.lockstep import decode_windows, detrend, window_means, winsorize


@settings(max_examples=100, deadline=None)
@given(
    bits=st.lists(st.integers(0, 1), min_size=2, max_size=40),
    low=st.floats(min_value=10.0, max_value=1000.0),
    gap=st.floats(min_value=50.0, max_value=500.0),
    samples_per_bit=st.integers(min_value=3, max_value=12),
)
def test_decode_recovers_clean_two_level_signal(bits, low, gap,
                                                samples_per_bit):
    """With any two separated levels and at least one bit of each value,
    decode_windows recovers the exact pattern."""
    if len(set(bits)) < 2:
        bits = bits + [1 - bits[0]]
    period = 100.0
    samples = []
    for index, bit in enumerate(bits):
        level = low + gap if bit else low
        for j in range(samples_per_bit):
            t = index * period + (j + 0.5) * period / samples_per_bit
            samples.append((t, level))
    assert decode_windows(samples, 0.0, period, len(bits)) == bits


@settings(max_examples=100, deadline=None)
@given(values=st.lists(
    st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
    min_size=1, max_size=100,
))
def test_winsorize_never_raises_values(values):
    samples = [(float(i), v) for i, v in enumerate(values)]
    clipped = winsorize(samples)
    for (t0, original), (t1, new) in zip(samples, clipped):
        assert t0 == t1
        assert new <= original + 1e-9


@settings(max_examples=100, deadline=None)
@given(values=st.lists(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    min_size=2, max_size=80,
))
def test_detrend_output_is_locally_centered(values):
    samples = [(float(i), v) for i, v in enumerate(values)]
    flat = detrend(samples, half_window_ns=1e9)  # window spans everything
    mean = np.mean([v for _, v in flat])
    assert abs(mean) < 1e-6 * max(1.0, np.abs(values).max())


@settings(max_examples=50, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=20),
    period=st.floats(min_value=1.0, max_value=1e4),
)
def test_window_means_handles_empty_input(count, period):
    means = window_means([], 0.0, period, count)
    assert means.shape == (count,)
    assert (means == 0.0).all()


def window_means_loop(samples, start, period, count):
    """The per-sample loop ``window_means`` replaced: the oracle."""
    sums = np.zeros(count)
    counts = np.zeros(count)
    for ts, value in samples:
        idx = int((ts - start) // period)
        if 0 <= idx < count:
            sums[idx] += value
            counts[idx] += 1
    means = np.empty(count)
    previous = 0.0
    for i in range(count):
        if counts[i] > 0:
            previous = sums[i] / counts[i]
        means[i] = previous
    return means


@settings(max_examples=200, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=40),
    period=st.floats(min_value=1e-3, max_value=1e4),
    start=st.floats(min_value=-1e6, max_value=1e6),
    samples=st.lists(st.tuples(
        st.one_of(st.floats(min_value=-2.0, max_value=45.0),
                  st.integers(min_value=-2, max_value=45).map(float)),
        st.floats(min_value=-1e9, max_value=1e9)), max_size=120),
)
def test_window_means_matches_the_sample_loop(count, period, start,
                                              samples):
    """Byte-equal to the loop: per-window sums in sample order, empty
    windows forward-filled, window edges included (whole multiples of
    the period)."""
    frame = [(start + offset * period, value) for offset, value in samples]
    got = window_means(frame, start, period, count)
    assert got.tobytes() == window_means_loop(frame, start, period,
                                              count).tobytes()
