"""Differential oracle for the bulk jitter replay.

``_jitter_by_call`` (numpy's public ``standard_normal``/``random``/
``exponential`` calls, one request at a time) is the definition;
``_jitter_from_raw`` (one stream) and ``draw_jitter_rows`` (several,
replayed in lockstep) must give the same bytes and leave every
generator in the same full state, uint32 buffer included — from any
stream position, for any spike rate, and when the first over-draw runs
short.
"""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rnic import jitter
from repro.rnic._ziggurat import KE, KI


def replay_and_call(rng, n, sigma, floor, spike_prob, spike_ns=400.0):
    """Run both implementations on copies of ``rng``; return
    ``(replayed, by_call, replayed_rng, by_call_rng)``."""
    replayed_rng = copy.deepcopy(rng)
    by_call_rng = copy.deepcopy(rng)
    replayed = jitter._jitter_from_raw(replayed_rng, n, sigma, floor,
                                       spike_prob, spike_ns)
    by_call = jitter._jitter_by_call(by_call_rng, n, sigma, floor,
                                     spike_prob, spike_ns)
    return replayed, by_call, replayed_rng, by_call_rng


def assert_same(replayed, by_call, replayed_rng, by_call_rng):
    assert replayed.dtype == by_call.dtype == np.float64
    assert replayed.tobytes() == by_call.tobytes()
    assert replayed_rng.bit_generator.state == by_call_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    n=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 600)),
    sigma=st.floats(0.0, 50.0),
    floor=st.floats(-100.0, 5.0),
    spike_prob=st.one_of(st.sampled_from([0.0, 0.01, 1.0]),
                         st.floats(0.0, 1.0)),
    buffered=st.booleans(),
    warmup=st.integers(0, 3000),
    short=st.booleans(),
)
def test_replay_matches_public_calls(seed, n, sigma, floor, spike_prob,
                                     buffered, warmup, short):
    rng = np.random.default_rng(seed)
    # a stream that has already been through the ziggurats' slow paths
    # (a few thousand normals and exponentials take dozens of them)
    rng.standard_normal(warmup)
    rng.standard_exponential(warmup)
    if buffered:  # leaves half a raw word in PCG64's uint32 buffer
        rng.integers(0, 2**16)
    assert rng.bit_generator.state["has_uint32"] == int(buffered)
    budget = (lambda count, prob: 1) if short else jitter._budget
    with mock.patch.object(jitter, "_budget", budget):
        results = replay_and_call(rng, n, sigma, floor, spike_prob)
    assert_same(*results)


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**63 - 1), min_size=2, max_size=40),
    counts=st.lists(st.integers(0, 300), min_size=40, max_size=40),
    sigma=st.floats(0.0, 50.0),
    floor=st.floats(-100.0, 5.0),
    spike_prob=st.one_of(st.sampled_from([0.0, 0.01, 1.0]),
                         st.floats(0.0, 1.0)),
    warmup=st.integers(0, 1000),
    short=st.booleans(),
)
def test_rows_replay_matches_public_calls(seeds, counts, sigma, floor,
                                          spike_prob, warmup, short):
    """Up to 40 streams at once (more than two blocks of
    ``CHUNK_ROWS``), some with a buffered uint32 and some with no
    requests; with a one-word budget every row runs short, so a short
    row may end any block."""
    rngs = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        rng.standard_normal(warmup)
        if seed & 1:
            rng.integers(0, 2**16)
        rngs.append(rng)
    twins = copy.deepcopy(rngs)
    counts = counts[:len(rngs)]
    budget = (lambda count, prob: 1) if short else jitter._budget
    with mock.patch.object(jitter, "_budget", budget):
        got = jitter.draw_jitter_rows(rngs, counts, sigma, floor,
                                      spike_prob, 400.0)
    expected = np.concatenate([
        jitter._jitter_by_call(twin, n, sigma, floor, spike_prob, 400.0)
        for twin, n in zip(twins, counts)])
    assert got.tobytes() == expected.tobytes()
    for rng, twin in zip(rngs, twins):
        assert rng.bit_generator.state == twin.bit_generator.state


def word_positions(rng, count, predicate):
    """The first ``count`` positions in ``rng``'s raw stream whose word
    satisfies ``predicate`` (leaves ``rng`` untouched)."""
    words = copy.deepcopy(rng).bit_generator.random_raw(1 << 20)
    found = np.flatnonzero(predicate(words))[:count]
    assert len(found) == count
    return found.tolist()


def normal_tail(words):
    return ((words & 0xFF) == 0) & (((words >> 9) & ((1 << 52) - 1))
                                    >= np.uint64(KI[0]))


def normal_wedge(words):
    index = (words & 0xFF).astype(np.intp)
    return (index != 0) & (((words >> 9) & ((1 << 52) - 1))
                           >= np.array(KI, dtype=np.uint64)[index])


def exponential_tail(words):
    return (((words >> 3) & 0xFF) == 0) & ((words >> 11) >= np.uint64(KE[0]))


def exponential_wedge(words):
    index = ((words >> 3) & 0xFF).astype(np.intp)
    return (index != 0) & ((words >> 11)
                           >= np.array(KE, dtype=np.uint64)[index])


@pytest.mark.parametrize("predicate,lead", [
    (normal_tail, 0), (normal_wedge, 0),
    # every request spikes: the word after a request's normal and
    # uniform is its exponential (when the normal takes one word)
    (exponential_tail, 2), (exponential_wedge, 2),
])
def test_each_slow_path_matches_from_the_exact_word(predicate, lead):
    """Start the stream exactly at words that leave a ziggurat's fast
    path, so the tail and wedge code (and, over 40 starts, their
    rejection loops) run on every call."""
    base = np.random.default_rng(7)
    for position in word_positions(base, 40, predicate):
        if position < lead:
            continue
        rng = copy.deepcopy(base)
        rng.bit_generator.advance(position - lead)
        assert_same(*replay_and_call(rng, 3, 3.0, -5.0, spike_prob=1.0))


@pytest.mark.parametrize("make", [np.random.Philox, np.random.SFC64,
                                  np.random.MT19937])
def test_other_bit_generators_take_the_public_calls(make):
    rng = np.random.Generator(make(11))
    expected_rng = copy.deepcopy(rng)
    with mock.patch.object(jitter, "_jitter_from_raw",
                           side_effect=AssertionError("replayed")):
        got = jitter.draw_jitter(rng, 500, 3.0, -5.0, 0.3, 400.0)
    expected = jitter._jitter_by_call(expected_rng, 500, 3.0, -5.0, 0.3,
                                      400.0)
    assert got.tobytes() == expected.tobytes()
    np.testing.assert_equal(rng.bit_generator.state,
                            expected_rng.bit_generator.state)


@pytest.mark.parametrize("table,corrupt", [
    ("WI_SIGNED", lambda widths: widths.__imul__(0.5)),
    # every normal takes the fast path
    ("KI_SIGNED", lambda thresholds: thresholds.fill(1 << 52)),
])
def test_a_failed_guard_takes_the_public_calls(table, corrupt):
    """A corrupted fast-path table fails :func:`replay_exact`, after
    which :func:`draw_jitter` still gives the public calls' bytes."""
    corrupted = getattr(jitter, table).copy()
    corrupt(corrupted)
    jitter.replay_exact.cache_clear()
    try:
        with mock.patch.object(jitter, table, corrupted):
            assert not jitter.replay_exact()
            rng = np.random.default_rng(3)
            expected_rng = copy.deepcopy(rng)
            got = jitter.draw_jitter(rng, 2000, 3.0, -5.0, 0.5, 400.0)
        expected = jitter._jitter_by_call(expected_rng, 2000, 3.0, -5.0,
                                          0.5, 400.0)
        assert got.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == expected_rng.bit_generator.state
    finally:
        jitter.replay_exact.cache_clear()
    assert jitter.replay_exact()
