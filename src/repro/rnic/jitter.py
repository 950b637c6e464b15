"""The translation unit's service-time jitter, drawn in bulk.

Every request :meth:`~repro.rnic.translation.TranslationUnit.admit`
serves draws, from the unit's stream and in this order,
``sigma * standard_normal()``, then ``random() < spike_prob``, then —
on a spike — ``exponential(spike_ns)``, and floors the sum at
``floor``.  None of it depends on timing, so a drain draws all its
requests' jitters first (:func:`draw_jitter`), before its
bank/pipeline recurrence; a batch of drains, one row per unit, draws
every row's at once (:func:`draw_jitter_rows`).

The public calls cost about 1.7 us a request.  On a PCG64 stream the
replays evaluate numpy's own algorithms on raw 64-bit words instead:
``random()`` is ``(w >> 11) * 2**-53``, and the normal and exponential
are Marsaglia & Tsang's ziggurat with numpy's tables (vendored in
:mod:`repro.rnic._ziggurat`).  A word's fast path (99.3 % of normals)
is one table lookup and one compare, evaluated for every word at once.
Requests whose normal takes the fast path and that do not spike each
use exactly two words, so a stream walks one parity of its words
between *stops*, the rest, whose extra words numpy's exact slow-path
code gives (:func:`_normal`, :func:`_exponential`).  Every fast normal
is then gathered in one pass, and each stream is rewound to exactly
the words it consumed.

One stream walks its stops in Python (:func:`_jitter_from_raw`).
Several streams work out every stop's extra words in array passes
first and then walk their stops in lockstep, one stop per step
(:func:`_replay_rows`): per stream, that costs about two thirds as
much on a trace's two thousand requests, and about four times as much
on a verbs cohort's few hundred, so the row count picks the walk.

:func:`replay_exact` checks both replays against the public calls once
per process; if it fails, or a stream is not PCG64, the public calls
run.  All give the same bytes and leave the same generator state.
"""

from __future__ import annotations

import bisect
import copy
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
#: The same tables as arrays, for the stops' array passes.
FI_ARRAY = np.array(FI, dtype=np.float64)
KE_ARRAY = np.array(KE, dtype=np.uint64)
WE_ARRAY = np.array(WE, dtype=np.float64)

_MASK52 = (1 << 52) - 1
#: Normals still rejected by as few as this many stops finish in Python.
SCALAR_BELOW = 8
#: Rows whose words :func:`_replay_rows` scans together, so that each
#: pass over them stays in a core's cache.
CHUNK_ROWS = 16
#: Lockstep steps between checks that some row is still walking.
CHECK_EVERY = 8


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


def _request(fetch, pos: int, spike_prob: float):
    """One request's draws from word ``pos`` on, by the scalar slow
    paths: ``(normal, spike or None, next unread word)``."""
    z, pos = _normal(fetch, pos)
    if _uniform(fetch(pos)) < spike_prob:
        value, pos = _exponential(fetch, pos + 1)
        return z, value, pos
    return z, None, pos + 1


def _budget(n: int, spike_prob: float) -> int:
    """Words to over-draw for ``n`` requests: two each, one more per
    expected spike, and slack for the slow paths.  Running short only
    costs another draw."""
    return 2 * n + int(1.25 * n * spike_prob) + n // 32 + 16


class _Short(Exception):
    """A stop's slow path read past its row's words."""


def _uniform_below(words: np.ndarray, prob: float) -> np.ndarray:
    """``random() < prob`` of each raw word: ``(w >> 11) < prob *
    2**53``, which for integers is ``w < ceil(prob * 2**53) << 11``."""
    bound = math.ceil(prob * 2.0**53)
    if bound >= 1 << 53:
        return np.ones(words.shape, dtype=bool)
    return words < np.uint64(max(bound, 0) << 11)


def _normals(words: np.ndarray) -> np.ndarray:
    """The fast-path normal of each word, ``rabs * wi[idx]`` with the
    sign."""
    return (((words >> np.uint64(9)) & np.uint64(_MASK52))
            * WI_SIGNED[(words & np.uint64(0x1FF)).view(np.int64)])


def _fast(words: np.ndarray) -> np.ndarray:
    """Whether each word's normal takes the fast path, ``rabs <
    ki[idx]``: with both sides shifted left nine bits, ``rabs`` is the
    word's bits 9-60 in place."""
    shifted = KI_SIGNED << np.uint64(9)
    return ((words & np.uint64(_MASK52 << 9))
            < shifted[(words & np.uint64(0x1FF)).view(np.int64)])


def _stops(words: np.ndarray, spike_prob: float):
    """Every stop of a ``(rows, width)`` block of words, and what the
    request starting at each consumes.

    A stop is a word whose normal leaves the fast path or whose next
    word's uniform spikes.  Positions are ``row * (width + 2) +
    word``: the last three words of each row and two sentinels past it
    are stops too, *ends*, which nothing is worked out for.  Returns,
    per stop in position order: its position, its word in the row, its
    extra words beyond two (-1 at an end, or where a slow path reads
    past the row's words), a normal that replaces the fast-path gather
    (NaN where none does) and its spike (NaN where none)."""
    rows, width = words.shape
    flat = words.ravel()
    stop = np.ones((rows, width + 2), dtype=bool)
    body = stop[:, :width - 3]
    np.logical_not(_fast(words[:, :width - 3]), out=body)
    body |= _uniform_below(words[:, 1:width - 2], spike_prob)
    at = np.flatnonzero(stop)
    row = at // (width + 2)
    local = at - row * (width + 2)
    extra = np.full(len(at), -1, dtype=np.int64)
    z = np.full(len(at), np.nan)
    spike = np.full(len(at), np.nan)

    # the array passes: a normal's attempts at words s, s + 2, ...
    # (the fast path ends it; the wedge test takes the next word's
    # uniform and on rejection starts over two words on), then the
    # spike's uniform and exponential, all within the row
    inner = np.flatnonzero(local < width - 3)
    s = row[inner] * width + local[inner]
    limit = s - local[inner] + width - 3
    scalar = np.zeros(len(s), dtype=bool)
    end = s + 1
    attempt = s.copy()
    pending = np.flatnonzero(~_fast(flat[s]))
    while len(pending) > SCALAR_BELOW:
        a = attempt[pending]
        word = flat[a]
        idx = (word & np.uint64(0xFF)).view(np.int64)
        fast = _fast(word)
        tail = ~fast & (idx == 0) | (a >= limit[pending])
        scalar[pending[tail]] = True
        # a normal accepted after a rejection replaces the gather
        fast &= ~tail
        done = fast & (a != s[pending])
        z[inner[pending[done]]] = _normals(word[done])
        end[pending[fast]] = a[fast] + 1
        wedge = np.flatnonzero(~fast & ~tail)
        w = a[wedge]
        x = _normals(word[wedge])
        u = (flat[w + 1] >> np.uint64(11)) * 2.0**-53
        k = idx[wedge]
        test = (FI_ARRAY[k - 1] - FI_ARRAY[k]) * u + FI_ARRAY[k]
        bound = np.exp(-0.5 * x * x)
        # numpy's exp may differ from libm's in the last bits: near a
        # tie, decide with math.exp, as numpy's own C code does
        close = np.flatnonzero(np.abs(test - bound) <= 1e-12 * bound)
        bound[close] = [math.exp(v) for v in (-0.5 * x[close] * x[close])
                        .tolist()]
        accept = test < bound
        won = pending[wedge[accept]]
        end[won] = w[accept] + 2
        late = w[accept] != s[won]
        z[inner[won[late]]] = x[accept][late]
        pending = pending[wedge[~accept]]
        attempt[pending] = w[~accept] + 2
    # the last few rejections cost less in Python than another round
    scalar[pending] = True
    spiked = _uniform_below(flat[end], spike_prob) & ~scalar
    word = flat[end + 1]
    ri = word >> np.uint64(11)
    eidx = ((word >> np.uint64(3)) & np.uint64(0xFF)).view(np.int64)
    scalar |= spiked & (ri >= KE_ARRAY[eidx])
    extra[inner] = end - s - 1 + spiked
    spike[inner[spiked]] = ri[spiked] * WE_ARRAY[eidx[spiked]]

    # tails, rejections and slow exponentials, in Python
    for j, start in zip(inner[scalar].tolist(), s[scalar].tolist()):
        stop_at = start - local.item(j) + width

        def fetch(pos: int) -> int:
            if pos >= stop_at:
                raise _Short
            return flat.item(pos)

        try:
            z[j], value, pos = _request(fetch, start, spike_prob)
        except _Short:
            extra[j] = -1
            continue
        spike[j] = np.nan if value is None else value
        extra[j] = pos - start - 2
    return at, local, extra, z, spike


def _rewind(bitgen, saved: dict, back: int) -> None:
    """Step ``bitgen`` back ``back`` words.  ``advance`` clears PCG64's
    uint32 buffer (``has_uint32``/``uinteger``), which none of these
    draws touch, so it is written back from the ``saved`` state."""
    bitgen.advance(-back)
    if saved["has_uint32"] or saved["uinteger"]:
        bitgen.state = saved | {"state": bitgen.state["state"]}


def _scan(words: np.ndarray, spike_prob: float):
    """Where a request starting at each word leaves the plain case.

    Returns ``(fast, stops)``: whether each word is a fast-path normal,
    and per parity the sorted words at which a request is not plain
    (its normal leaves the fast path, or the next word's uniform
    spikes).  The last three words are always stops: their requests run
    the exact slow-path code, which draws more words as needed."""
    fast = _fast(words)
    stop = np.ones(len(words), dtype=bool)
    body = max(len(words) - 3, 0)
    stop[:body] = ~fast[:body] | _uniform_below(words[1:body + 1],
                                                spike_prob)
    every = np.flatnonzero(stop)
    odd = (every & 1).astype(bool)
    return fast, (every[~odd].tolist(), every[odd].tolist())


def _jitter_from_raw(rng: np.random.Generator, n: int, sigma: float,
                     floor: float, spike_prob: float,
                     spike_ns: float) -> np.ndarray:
    """:func:`_jitter_by_call` of one PCG64 stream, replayed from raw
    output.

    The words are over-drawn (:func:`_budget`, extended if a drain runs
    short), then the stream is rewound to exactly the consumed count.
    The walk visits only the stops (:func:`_scan`), running numpy's code
    in Python from each; request ``i`` then starts at word ``2 i`` plus
    the extra words of the stops before it."""
    bitgen = rng.bit_generator
    saved = bitgen.state
    words = bitgen.random_raw(_budget(n, spike_prob))
    fast, stops_at = _scan(words, spike_prob)

    def fetch(pos: int) -> int:
        nonlocal words, fast, stops_at
        if pos >= len(words):
            words = np.concatenate(
                (words, bitgen.random_raw(max(len(words), 16))))
            fast, stops_at = _scan(words, spike_prob)
        return words.item(pos)

    stops, extra, slow, slow_z, spiked, spikes = [], [], [], [], [], []
    pos = i = 0
    while True:
        if pos + 3 >= len(words):
            fetch(pos + 3)
        parity = stops_at[pos & 1]
        stop = parity[bisect.bisect_left(parity, pos)]
        i += (stop - pos) >> 1
        if i >= n:
            pos = stop - 2 * (i - n)
            break
        if fast.item(stop):
            pos = stop + 1
        else:
            z, pos = _normal(fetch, stop)
            slow.append(i)
            slow_z.append(z)
        if _uniform(fetch(pos)) < spike_prob:
            value, pos = _exponential(fetch, pos + 1)
            spiked.append(i)
            spikes.append(value)
        else:
            pos += 1
        stops.append(i)
        extra.append(pos - stop - 2)
        i += 1

    shift = np.zeros(n + 1, dtype=np.int64)
    shift[np.array(stops, dtype=np.intp) + 1] = extra
    jitter = _normals(words[2 * np.arange(n) + np.cumsum(shift[:-1])])
    if slow:
        jitter[slow] = slow_z
    jitter *= sigma
    if spiked:
        jitter[spiked] += spike_ns * np.array(spikes)
    jitter[jitter < floor] = floor
    _rewind(bitgen, saved, len(words) - pos)
    return jitter


def _replay_rows(bitgens: list, counts: np.ndarray, sigma: float,
                 floor: float, spike_prob: float,
                 spike_ns: float) -> tuple[np.ndarray, list]:
    """:func:`_jitter_by_call` of ``counts[r]`` requests on each PCG64
    ``bitgens[r]``, replayed from raw output in lockstep; returns the
    concatenated jitters and the rows that ran short.

    Every row over-draws the same number of words (:func:`_budget`)
    and is then rewound to exactly the words it consumed.  A row that
    runs short is rewound to where it started, and its slice of the
    result is left for the caller to draw again.

    Each stop (:func:`_stops`) links to the next one its row can reach:
    the next request starts at ``s + 2 + extra``, and the stop after
    that is the first one at or past that word of its parity, ``inc``
    requests on.  Every row starts at its first even stop and follows
    the links, all rows one step at a time, until each has placed its
    requests.  Request ``i`` of a row then starts at word ``2 i`` plus
    the extra words of the stops before it, and the fast-path normals
    are gathered from those words in one pass."""
    rows = len(bitgens)
    width = _budget(int(counts.max()), spike_prob)
    width = max(width + (width & 1), 4)
    saved = [bitgen.state for bitgen in bitgens]
    # the words and their stops, a few rows at a time so that the
    # scans stay in cache
    chunks = []
    parts = []
    for first in range(0, rows, CHUNK_ROWS):
        part = bitgens[first:first + CHUNK_ROWS]
        words = np.empty((len(part), width), dtype=np.uint64)
        for r, bitgen in enumerate(part):
            words[r] = bitgen.random_raw(width)
        chunks.append((first, words))
        at, *rest = _stops(words, spike_prob)
        parts.append((at + first * (width + 2), *rest))
    at, local, extra, z, spike = (np.concatenate(column)
                                  for column in zip(*parts))

    # the links, by parity (the pitch width + 2 is even, so a
    # position's parity is its word's); an end links to itself
    ends = extra < 0
    nxt = np.arange(len(at))
    inc = np.zeros(len(at), dtype=np.int64)
    going = np.flatnonzero(~ends)
    after = at[going] + 2 + extra[going]
    odd = (at & 1).astype(bool)
    for parity, ranks in enumerate((np.flatnonzero(~odd),
                                    np.flatnonzero(odd))):
        mine = np.flatnonzero((after & 1) == parity)
        found = ranks[np.searchsorted(at[ranks], after[mine])]
        nxt[going[mine]] = found
        inc[going[mine]] = 1 + ((at[found] - after[mine]) >> 1)

    # the walks: row r is at stop k[r] as its request i[r]; it walks
    # while requests remain and it is not at an end, which holds on a
    # prefix of its steps (a finished row runs on past its count)
    evens = np.flatnonzero(~odd)
    k = evens[np.searchsorted(at[evens], np.arange(rows) * (width + 2))]
    i = local[k] >> 1
    nodes, placed = [k], [i]
    while len(nodes) % CHECK_EVERY != 1 or ((i < counts) & ~ends[k]).any():
        i = i + inc[k]
        k = nxt[k]
        nodes.append(k)
        placed.append(i)
    nodes = np.stack(nodes, axis=1)
    placed = np.stack(placed, axis=1)
    walking = (placed < counts[:, None]) & ~ends[nodes]
    steps = walking.sum(axis=1)
    k = nodes[np.arange(rows), steps]
    i = placed[np.arange(rows), steps]
    short = np.flatnonzero(i < counts).tolist()
    visited = nodes[walking]
    placed = placed[walking]

    # request i of row r starts at word 2 i + the extra words before it
    offsets = np.concatenate(([0], np.cumsum(counts)))
    n = int(offsets[-1])
    request = offsets[at[visited] // (width + 2)] + placed
    shift = np.zeros(n + 1, dtype=np.int64)
    shift[request + 1] = extra[visited]
    np.cumsum(shift, out=shift)
    base = np.arange(rows) * width - 2 * offsets[:-1] - shift[offsets[:-1]]
    start = 2 * np.arange(n) + shift[:n] + np.repeat(base, counts)
    jitter = np.empty(n)
    for first, words in chunks:
        lo, hi = offsets[first], offsets[first + len(words)]
        where = start[lo:hi] - first * width
        if short:  # a short row's unplaced requests run past its words
            where.clip(0, words.size - 1, out=where)
        jitter[lo:hi] = _normals(words.ravel()[where])
    replaced = ~np.isnan(z[visited])
    jitter[request[replaced]] = z[visited[replaced]]
    jitter *= sigma
    spiked = ~np.isnan(spike[visited])
    jitter[request[spiked]] += spike_ns * spike[visited[spiked]]
    jitter[jitter < floor] = floor

    consumed = local[k] - 2 * (i - counts)
    consumed[short] = 0
    for bitgen, state, used in zip(bitgens, saved, consumed.tolist()):
        _rewind(bitgen, state, width - used)
    return jitter, short


#: The seed of :func:`replay_exact`'s self-check stream.  The stream
#: feeds no result: only the comparison of the replays with the public
#: calls reads it.
_CHECK_SEED = 1
#: Raw words searched for slow-path starts, and starts per slow path.
_CHECK_WORDS = 1 << 15
_CHECK_STARTS = 4


def _check_stream(start: int, carry: bool = False) -> np.random.Generator:
    """The self-check stream, advanced ``start`` words (after buffering
    half a raw word when ``carry``)."""
    rng = np.random.Generator(np.random.PCG64(_CHECK_SEED))
    if carry:
        rng.integers(0, 2**16)
    rng.bit_generator.advance(start)
    return rng


@functools.cache
def replay_exact() -> bool:
    """Whether :func:`_jitter_from_raw` and :func:`_replay_rows`
    reproduce the public calls on this numpy, checked once per process
    on copies of a fixed PCG64 stream.

    The checks start exactly at the first words that leave each
    ziggurat's fast path — the normal's tail and wedge, the
    exponential's — found with the slow paths' tuples, not the
    fast-path arrays under test.  From each, :func:`_normal` or
    :func:`_exponential` must give the public call's value and leave
    its stream where the call does, so every slow branch, rejections
    included, runs (tests/rnic/test_jitter.py).  Then both replays run
    on one stream of 256 requests at ``spike_prob=0.5`` from the
    stream's start with a buffered uint32, half of them plain; and,
    every request spiking, on streams of four requests whose first
    normal (or first exponential) starts at each of those words, the
    rows replay taking them all as one batch.  Each stream's jitters
    and full generator state after them must match the public
    calls'."""
    words = np.random.PCG64(_CHECK_SEED).random_raw(_CHECK_WORDS)
    normal_idx = (words & 0xFF).astype(np.intp)
    normal_slow = (((words >> 9) & _MASK52)
                   >= np.array(KI, dtype=np.uint64)[normal_idx])
    exp_idx = ((words >> 3) & 0xFF).astype(np.intp)
    exp_slow = (words >> 11) >= np.array(KE, dtype=np.uint64)[exp_idx]
    starts = []
    for slow, idx, lead, scalar, call in (
            (normal_slow, normal_idx, 0, _normal, "standard_normal"),
            (exp_slow, exp_idx, 2, _exponential, "standard_exponential")):
        for where in (slow & (idx == 0), slow & (idx != 0)):
            found = np.flatnonzero(where[lead:])[:_CHECK_STARTS].tolist()
            for start in found:
                try:
                    value, used = scalar(words.item, start + lead)
                except IndexError:
                    return False
                stream = _check_stream(start + lead)
                if (value != getattr(stream, call)()
                        or stream.bit_generator.state
                        != _check_stream(used).bit_generator.state):
                    return False
            starts += found
    checks = [([_check_stream(0, carry=True)], 256, 0.5),
              ([_check_stream(start) for start in starts], 4, 1.0)]
    params = (3.0, -5.0)
    for streams, n, spike_prob in checks:
        expected = [copy.deepcopy(rng) for rng in streams]
        want = [_jitter_by_call(twin, n, *params, spike_prob, 400.0).tobytes()
                for twin in expected]
        single = [copy.deepcopy(rng) for rng in streams]
        try:
            got = [_jitter_from_raw(rng, n, *params, spike_prob,
                                    400.0).tobytes() for rng in single]
            rows, short = _replay_rows(
                [rng.bit_generator for rng in streams],
                np.full(len(streams), n), *params, spike_prob, 400.0)
        except (IndexError, KeyError, TypeError, ValueError):
            return False
        if (short or got != want or rows.tobytes() != b"".join(want)
                or any(rng.bit_generator.state != twin.bit_generator.state
                       for replayed in (single, streams)
                       for rng, twin in zip(replayed, expected))):
            return False
    return True


def draw_jitter_rows(rngs: list, counts, sigma: float, floor: float,
                     spike_prob: float, spike_ns: float) -> np.ndarray:
    """The jitters of ``counts[r]`` consecutive requests on each stream
    ``rngs[r]`` (distinct generators), concatenated row by row, and
    each stream consumed exactly as the public calls would: two or more
    PCG64 rows replayed together (:func:`_replay_rows`) when
    :func:`replay_exact` holds, every other row — and any that ran
    short of words — by :func:`draw_jitter`."""
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts))).tolist()
    out = np.empty(offsets[-1])
    alone = list(range(len(rngs)))
    together = [r for r in alone
                if type(rngs[r].bit_generator) is np.random.PCG64]
    if len(together) > 1 and replay_exact():
        jitter, short = _replay_rows(
            [rngs[r].bit_generator for r in together], counts[together],
            sigma, floor, spike_prob, spike_ns)
        at = 0
        for r in together:
            out[offsets[r]:offsets[r + 1]] = jitter[at:at + counts[r]]
            at += counts[r]
        alone = sorted(set(alone) - set(together)
                       | {together[j] for j in short})
    for r in alone:
        out[offsets[r]:offsets[r + 1]] = draw_jitter(
            rngs[r], int(counts[r]), sigma, floor, spike_prob, spike_ns)
    return out


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
