"""The translation unit's service-time jitter, drawn in bulk.

Every request :meth:`~repro.rnic.translation.TranslationUnit.admit`
serves draws, from the unit's stream and in this order,
``sigma * standard_normal()``, then ``random() < spike_prob``, then —
on a spike — ``exponential(spike_ns)``, and floors the sum at
``floor``.  None of it depends on timing, so a drain of ``n`` requests
draws all ``n`` jitters first (:func:`draw_jitter`) and only the
bank/pipeline recurrence stays serial.

The public calls cost about 1.7 us a request.  On a PCG64 stream
:func:`_jitter_from_raw` replays them from raw 64-bit words instead,
evaluating numpy's own algorithms: ``random()`` is ``(w >> 11) *
2**-53``, and the normal and exponential are Marsaglia & Tsang's
ziggurat with numpy's tables (vendored in :mod:`repro.rnic._ziggurat`).
A word's fast path (99.3 % of normals) is one table lookup and one
compare, evaluated for every word at once.  Requests whose normal
takes the fast path and that do not spike each use exactly two words,
so runs of them are copied in slices; the rest — spikes and the rare
slow paths — run numpy's exact slow-path code in Python.  The stream
is then rewound to exactly the words consumed.

:func:`replay_exact` checks the replay against the public calls once
per process; if it fails, or the stream is not PCG64, the public calls
run.  Both give the same bytes and leave the same generator state.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

from repro.rnic._ziggurat import FE, FI, KE, KI, WE, WI

# numpy's ziggurat_constants.h: the normal's tail start and its
# reciprocal, and the exponential's tail start
NOR_R = 3.6541528853610087963519472518
NOR_INV_R = 0.27366123732975827203338247596
EXP_R = 7.6971174701310497140446280481

#: The normal ziggurat's fast-path tables for the per-word evaluation,
#: indexed by a word's low nine bits: the table index, then the sign
#: bit.  ``rabs * -w`` is ``-(rabs * w)`` exactly, so the sign folds
#: into the width table.  (The slow paths index the tuples.)
KI_SIGNED = np.array(KI * 2, dtype=np.uint64)
WI_SIGNED = np.array(WI + tuple(-w for w in WI), dtype=np.float64)

_MASK52 = (1 << 52) - 1


def _jitter_by_call(rng: np.random.Generator, n: int, sigma: float,
                    floor: float, spike_prob: float,
                    spike_ns: float) -> np.ndarray:
    """:func:`draw_jitter` through the public ``Generator`` calls —
    the definition the replay must match."""
    standard_normal = rng.standard_normal
    random = rng.random
    exponential = rng.exponential
    out = []
    append = out.append
    for _ in range(n):
        jitter = sigma * standard_normal()
        if random() < spike_prob:
            jitter += exponential(spike_ns)
        if jitter < floor:
            jitter = floor
        append(jitter)
    return np.array(out, dtype=np.float64)


def _uniform(word: int) -> float:
    """``random()`` of one raw word."""
    return (word >> 11) * 2.0**-53


def _normal(fetch, pos: int) -> tuple[float, int]:
    """numpy's ``random_standard_normal`` from word ``pos`` on;
    returns the value and the next unread word."""
    while True:
        word = fetch(pos)
        pos += 1
        idx = word & 0xFF
        r = word >> 8
        rabs = (r >> 1) & _MASK52
        x = rabs * WI[idx]
        if r & 1:
            x = -x
        if rabs < KI[idx]:
            return x, pos
        if idx == 0:
            # the tail beyond NOR_R
            while True:
                xx = -NOR_INV_R * math.log1p(-_uniform(fetch(pos)))
                yy = -math.log1p(-_uniform(fetch(pos + 1)))
                pos += 2
                if yy + yy > xx * xx:
                    if (rabs >> 8) & 1:
                        return -(NOR_R + xx), pos
                    return NOR_R + xx, pos
        u = _uniform(fetch(pos))
        pos += 1
        if (FI[idx - 1] - FI[idx]) * u + FI[idx] < math.exp(-0.5 * x * x):
            return x, pos


def _exponential(fetch, pos: int) -> tuple[float, int]:
    """numpy's ``random_standard_exponential`` from word ``pos`` on."""
    while True:
        word = fetch(pos)
        pos += 1
        ri = word >> 3
        idx = ri & 0xFF
        ri >>= 8
        x = ri * WE[idx]
        if ri < KE[idx]:
            return x, pos
        u = _uniform(fetch(pos))
        pos += 1
        if idx == 0:
            return EXP_R - math.log1p(-u), pos
        if (FE[idx - 1] - FE[idx]) * u + FE[idx] < math.exp(-x):
            return x, pos


def _budget(n: int, spike_prob: float) -> int:
    """Words to over-draw for ``n`` requests: two each, one more per
    expected spike, and slack for the slow paths.  Running short only
    costs another draw."""
    return 2 * n + int(1.25 * n * spike_prob) + n // 32 + 16


def _scan(words: np.ndarray, spike_prob: float):
    """Per-word fast-path normals, and for each parity the sorted word
    positions at which a request is *not* plain (its normal leaves the
    fast path, or the next word's uniform spikes), each list closed by
    a sentinel past the end."""
    low = words & 0x1FF
    rabs = (words >> 9) & _MASK52
    normal = rabs * WI_SIGNED[low]
    # random() < p, scaled by 2**53 (exact): (w >> 11) < p * 2**53
    stops = np.flatnonzero((rabs >= KI_SIGNED[low])[:-1]
                           | ((words[1:] >> 11) < spike_prob * 2.0**53))
    end = len(words) + 1
    even, odd = [], []
    for stop in stops.tolist():
        (odd if stop & 1 else even).append(stop)
    return normal, (even + [end], odd + [end])


def _jitter_from_raw(rng: np.random.Generator, n: int, sigma: float,
                     floor: float, spike_prob: float,
                     spike_ns: float) -> np.ndarray:
    """:func:`_jitter_by_call` replayed from PCG64's raw output.

    The words are over-drawn (:func:`_budget`, extended if a drain
    runs short), then the generator is rewound to exactly the consumed
    count.  ``advance`` clears PCG64's uint32 buffer
    (``has_uint32``/``uinteger``), which none of these draws touch, so
    it is written back."""
    bitgen = rng.bit_generator
    saved = bitgen.state
    words = bitgen.random_raw(_budget(n, spike_prob))
    normal, stops = _scan(words, spike_prob)

    def fetch(pos: int) -> int:
        nonlocal words, normal, stops
        if pos >= len(words):
            words = np.concatenate(
                (words, bitgen.random_raw(max(len(words), 16))))
            normal, stops = _scan(words, spike_prob)
        return int(words[pos])

    z = np.empty(n)
    spiked, spikes = [], []
    pos = i = 0
    while i < n:
        parity = stops[pos & 1]
        stop = parity[bisect.bisect_left(parity, pos)]
        run = min((stop - pos) >> 1, n - i, (len(words) - pos) >> 1)
        if run:
            # plain requests: a fast normal, then a uniform that does
            # not spike
            z[i:i + run] = normal[pos:pos + 2 * run:2]
            i += run
            pos += 2 * run
            continue
        z[i], pos = _normal(fetch, pos)
        if _uniform(fetch(pos)) < spike_prob:
            value, pos = _exponential(fetch, pos + 1)
            spiked.append(i)
            spikes.append(value)
        else:
            pos += 1
        i += 1

    jitter = sigma * z
    if spiked:
        jitter[spiked] += spike_ns * np.array(spikes)
    jitter[jitter < floor] = floor

    bitgen.state = saved
    bitgen.advance(pos)
    state = bitgen.state
    state["has_uint32"] = saved["has_uint32"]
    state["uinteger"] = saved["uinteger"]
    bitgen.state = state
    return jitter


#: The seed of :func:`replay_exact`'s self-check stream.  The stream
#: feeds no result: only the comparison of the replay with the public
#: calls reads it.
_CHECK_SEED = 1
#: Raw words searched for slow-path starts, and starts per slow path.
_CHECK_WORDS = 1 << 15
_CHECK_STARTS = 4


@functools.cache
def replay_exact() -> bool:
    """Whether :func:`_jitter_from_raw` reproduces the public calls on
    this numpy, checked once per process on copies of a fixed PCG64
    stream.

    One copy runs 256 requests at ``spike_prob=0.5`` from the stream's
    start with a buffered uint32, half of them plain (the fast-path
    arrays).  The others start exactly at the first words that leave
    each ziggurat's fast path — the normal's tail and wedge (a
    request's first word), the exponential's (its third, every request
    spiking) — so every slow branch, rejections included, runs
    (tests/rnic/test_jitter.py).  The starts are found with the slow
    paths' tuples, not the fast-path arrays under test.  The jitters
    and the full generator state after them must match the public
    calls'."""
    words = np.random.PCG64(_CHECK_SEED).random_raw(_CHECK_WORDS)
    normal_idx = (words & 0xFF).astype(np.intp)
    normal_slow = (((words >> 9) & _MASK52)
                   >= np.array(KI, dtype=np.uint64)[normal_idx])
    exp_idx = ((words >> 3) & 0xFF).astype(np.intp)
    exp_slow = (words >> 11) >= np.array(KE, dtype=np.uint64)[exp_idx]
    checks = [(0, True, 256, 0.5)]
    for slow, idx, lead in ((normal_slow, normal_idx, 0),
                            (exp_slow, exp_idx, 2)):
        for where in (slow & (idx == 0), slow & (idx != 0)):
            found = np.flatnonzero(where[lead:])[:_CHECK_STARTS]
            checks += [(start, False, 4, 1.0) for start in found.tolist()]
    for start, carry, requests, spike_prob in checks:
        by_call = np.random.Generator(np.random.PCG64(_CHECK_SEED))
        replayed = np.random.Generator(np.random.PCG64(_CHECK_SEED))
        for rng in (by_call, replayed):
            if carry:  # buffers half a raw word
                rng.integers(0, 2**16)
            rng.bit_generator.advance(start)
        params = (requests, 3.0, -5.0, spike_prob, 400.0)
        try:
            got = _jitter_from_raw(replayed, *params)
        except (IndexError, KeyError, TypeError, ValueError):
            return False
        expected = _jitter_by_call(by_call, *params)
        if not (got.tobytes() == expected.tobytes()
                and replayed.bit_generator.state
                == by_call.bit_generator.state):
            return False
    return True


def draw_jitter(rng: np.random.Generator, n: int, sigma: float,
                floor: float, spike_prob: float,
                spike_ns: float) -> np.ndarray:
    """The jitters of ``n`` consecutive requests as a float64 array,
    consuming ``rng`` exactly as the public calls would: replayed in
    bulk on a PCG64 stream when :func:`replay_exact` holds, else
    through the calls themselves."""
    if type(rng.bit_generator) is np.random.PCG64 and replay_exact():
        return _jitter_from_raw(rng, n, sigma, floor, spike_prob, spike_ns)
    return _jitter_by_call(rng, n, sigma, floor, spike_prob, spike_ns)
