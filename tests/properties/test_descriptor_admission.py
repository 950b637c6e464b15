"""Differential oracles for the descriptor-array translation paths.

``TranslationUnit.admit`` is the definition; the batched paths
(``admit_batch`` cohorts and ``admit_closed_loop``, both through one
shared prepass and the closed-form drain) and ``TraceSynthesizer.trace``
built on them must agree with it bit for bit: finishes, trace bytes,
stats, cache counters and resident keys, bank and pipeline horizons,
history registers and the RNG streams.  The bulk cache replay
(``SetAssocCache.access_many``) must agree with ``access`` in order.

The units start from random bank and pipeline horizons, and the bank
hold is drawn around the service times, so both the closed form and
its per-request fallback run.
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.rnic.caches as caches
import repro.rnic.translation as translation
import repro.side.snoop as snoop
from repro.rnic import SetAssocCache, TranslationUnit, cx5
from repro.side import CANDIDATE_OFFSETS, SnoopConfig, TraceSynthesizer

#: Small caches, so random workloads also exercise MPT/MTT evictions.
SMALL_CACHES = dataclasses.replace(
    cx5(), mpt_cache_entries=4, mpt_cache_ways=2,
    mtt_cache_entries=8, mtt_cache_ways=2,
)

#: Bank holds: none, the default (most often), about the base service
#: time (services straddle it, so the drain falls back) and above every
#: service.
HOLDS = [0.0, 180.0, 180.0, 180.0, 300.0, 2500.0]


def unit_state(unit: TranslationUnit) -> tuple:
    """Everything an admission may change."""
    cache_states = [(cache.hits, cache.misses, cache.evictions,
                     cache.resident())
                    for cache in (unit.mpt_cache, unit.mtt_cache)]
    return (dataclasses.asdict(unit.stats), list(unit._bank_busy),
            unit._pipe_busy, unit._last_mr, unit._last_seg_mr,
            unit._last_seg_idx, unit._last_line_mr, unit._last_line_idx,
            cache_states, unit.rng.bit_generator.state)


def unit_pair(seed: int, history: list, hold: float = 180.0,
              horizons=None) -> tuple:
    """Two identical units, both warmed by the same scalar admissions
    so the batched paths start from non-fresh registers and caches,
    then given the same bank and pipeline ``horizons`` if any."""
    spec = dataclasses.replace(SMALL_CACHES, tpu_bank_busy_ns=hold)
    units = tuple(TranslationUnit(spec, rng=np.random.default_rng(seed))
                  for _ in range(2))
    for unit in units:
        for arrival, mr_id, offset, size in history:
            unit.admit(arrival, mr_id, offset, size)
        if horizons is not None:
            unit._pipe_busy = horizons[0]
            unit._bank_busy = list(horizons[1])
    return units


mr_ids = st.integers(min_value=0, max_value=5)
# unaligned offsets over several 2 KB segments; sizes up to 200 B span
# up to four 64 B lines
offsets = st.integers(min_value=0, max_value=3 * 2048 + 100)
sizes = st.integers(min_value=1, max_value=200)
history = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=500.0), mr_ids, offsets,
              sizes),
    max_size=6,
)
holds = st.sampled_from(HOLDS)
#: Carried-in pipeline and bank horizons (32 banks), or the warm-up's.
horizons = st.one_of(
    st.none(),
    st.tuples(st.floats(min_value=0.0, max_value=3000.0),
              st.lists(st.floats(min_value=0.0, max_value=3000.0),
                       min_size=32, max_size=32)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       warmup=history, hold=holds, carried=horizons,
       requests=st.lists(st.tuples(mr_ids, offsets, sizes,
                                   st.sampled_from([0.0, 0.5, 50.0, 300.0])),
                         min_size=1, max_size=80),
       negative=st.one_of(st.none(), st.integers(min_value=0)))
def test_closed_loop_matches_admit_loop(seed, warmup, hold, carried,
                                        requests, negative):
    fast, oracle = unit_pair(seed, warmup, hold, carried)
    if negative is not None:  # one negative gap: the drain falls back
        index = negative % len(requests)
        requests[index] = (*requests[index][:3], -1.0)
    ids, offs, lengths, gaps = (list(column) for column in zip(*requests))
    finishes = fast.admit_closed_loop(np.array(ids), np.array(offs),
                                      np.array(lengths), np.array(gaps))
    now = oracle._pipe_busy
    expected = []
    for mr_id, offset, size, gap in requests:
        now, _ = oracle.admit(now + gap, mr_id, offset, size)
        expected.append(now)
    assert finishes.tolist() == expected
    assert unit_state(fast) == unit_state(oracle)


#: Spacings between cohort arrivals: back to back, within a service,
#: and past one (each such gap starts a new busy period).
spacings = st.sampled_from([0.0, 0.0, 25.0, 200.0, 600.0, 5000.0])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       warmup=history, hold=holds, carried=horizons,
       mr_key=st.one_of(mr_ids, st.sampled_from(["mr-a", "mr-b"])),
       start=st.floats(min_value=0.0, max_value=4000.0),
       requests=st.lists(st.tuples(spacings, offsets, sizes),
                         min_size=translation.VECTOR_MIN - 2,
                         max_size=3 * translation.VECTOR_MIN))
def test_cohort_matches_admit_loop(seed, warmup, hold, carried, mr_key,
                                   start, requests):
    fast, oracle = unit_pair(seed, warmup, hold, carried)
    arrivals = np.cumsum([start] + [gap for gap, _, _ in requests[1:]])
    offs = [offset for _, offset, _ in requests]
    lengths = [size for _, _, size in requests]
    finishes = fast.admit_batch(arrivals.tolist(), mr_key, np.array(offs),
                                np.array(lengths))
    expected = [oracle.admit(arrival, mr_key, offset, size)[0]
                for arrival, offset, size in zip(arrivals.tolist(), offs,
                                                 lengths)]
    assert finishes == expected
    assert all(type(finish) is float for finish in finishes)
    assert unit_state(fast) == unit_state(oracle)


def test_cohort_restarts_at_its_first_closed_form_request():
    """The prefix ends on request 2, whose arrival is past the chain
    through request 1 and request 1's bank hold: the chain restarts at
    that arrival, and the hold is not added on top of it."""
    fast, oracle = unit_pair(0, [], 180.0, (0.0, [0.0] * 31 + [1902.0]))
    arrivals = [0.0, 0.0] + [5000.0] * (translation.VECTOR_MIN - 2)
    offs = [0, 0, 57, 313, 313] + [0] * (translation.VECTOR_MIN - 5)
    lengths = [1, 1, 200, 200, 3] + [1] * (translation.VECTOR_MIN - 5)
    finishes = fast.admit_batch(arrivals, 0, np.array(offs),
                                np.array(lengths))
    assert finishes == [oracle.admit(arrival, 0, offset, size)[0]
                        for arrival, offset, size in zip(arrivals, offs,
                                                         lengths)]
    assert unit_state(fast) == unit_state(oracle)


def test_closed_form_takes_contract_batches():
    """The oracles above compare the closed form, not only its
    fallback: a fresh closed loop never runs the per-request loop, and
    a cohort on carried-in banks runs it for its one-request prefix."""
    unit = TranslationUnit(cx5(), rng=np.random.default_rng(1))
    n = 4 * translation.VECTOR_MIN
    with mock.patch.object(TranslationUnit, "_serial",
                           side_effect=AssertionError("loop")):
        unit.admit_closed_loop(np.zeros(n, dtype=np.int64),
                               np.arange(n) * 68, np.full(n, 64),
                               np.full(n, 50.0))
    calls = []
    serial = TranslationUnit._serial

    def counting(self, services, *args):
        calls.append(len(services))
        return serial(self, services, *args)

    with mock.patch.object(TranslationUnit, "_serial", counting):
        unit.admit_batch(unit._pipe_busy + np.arange(n) * 10.0, 0,
                         np.arange(n) * 68, np.full(n, 64))
    assert calls == [1]


# ----------------------------------------------------------------------
# TraceSynthesizer.trace against the scalar loop it replaced
# ----------------------------------------------------------------------
def scalar_trace(synthesizer, victim_offset, file_base=0, rng=None,
                 units=None):
    """The per-request admission loop, kept here as the oracle."""
    if rng is None:
        rng = synthesizer.rng
    cfg = synthesizer.config
    unit = TranslationUnit(
        synthesizer.spec, rng=np.random.default_rng(rng.integers(2**63)))
    units.append(unit)
    mr_key = "shared-file"
    now = 0.0
    offsets = cfg.observation_offsets
    trace = np.empty(len(offsets))
    gap = 50.0
    for index, obs_offset in enumerate(offsets):
        samples = np.empty(cfg.probes_per_point)
        for probe in range(cfg.probes_per_point):
            if rng.random() < cfg.victim_duty:
                now, _ = unit.admit(
                    now, mr_key, file_base + victim_offset, cfg.read_size)
            if rng.random() < cfg.ambient_rate:
                stray = 64 * int(rng.integers(0, 32768))
                now, _ = unit.admit(now, "ambient-mr", stray,
                                    cfg.read_size)
            arrival = now + gap
            finish, _ = unit.admit(
                arrival, mr_key, file_base + obs_offset, cfg.read_size)
            samples[probe] = finish - arrival
            now = finish
        trace[index] = samples.mean()
    return trace


def recording_units(built: list):
    """Patch the synthesizer's ``TranslationUnit`` to keep every unit
    it builds."""
    class Recording(TranslationUnit):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    return mock.patch.object(snoop, "TranslationUnit", Recording)


configs = st.builds(
    SnoopConfig,
    probes_per_point=st.integers(min_value=1, max_value=16),
    victim_duty=st.floats(min_value=0.01, max_value=1.0),
    ambient_rate=st.floats(min_value=0.0, max_value=0.99),
    observation_step=st.sampled_from([4, 16, 64, 256, 1024]),
)


@settings(max_examples=25, deadline=None)
@given(config=configs,
       seed=st.integers(min_value=0, max_value=2**32),
       victims=st.lists(st.sampled_from(CANDIDATE_OFFSETS), min_size=1,
                        max_size=3),
       file_base=st.integers(min_value=0, max_value=1 << 20),
       sequential=st.booleans())
def test_trace_matches_scalar_loop(config, seed, victims, file_base,
                                   sequential):
    fast = TraceSynthesizer(config=config, seed=seed)
    oracle = TraceSynthesizer(config=config, seed=seed)
    built: list = []
    expected_units: list = []
    for repeat, victim in enumerate(victims):
        # sequential: both draw from their own self.rng, so the
        # generator state one trace leaves (uint32 carry included) is
        # the next one's start; otherwise fresh per-trace streams
        stream = None if sequential else fast._trace_rng(0, repeat)
        oracle_stream = None if sequential else oracle._trace_rng(0, repeat)
        with recording_units(built):
            got = fast.trace(victim, file_base=file_base, rng=stream)
        want = scalar_trace(oracle, victim, file_base=file_base,
                            rng=oracle_stream, units=expected_units)
        assert got.tobytes() == want.tobytes()
        if not sequential:
            assert (stream.bit_generator.state
                    == oracle_stream.bit_generator.state)
    assert fast.rng.bit_generator.state == oracle.rng.bit_generator.state
    assert [unit_state(unit) for unit in built] == \
        [unit_state(unit) for unit in expected_units]


# ----------------------------------------------------------------------
# Bank occupancy over multi-line requests (wrapping and full spans)
# ----------------------------------------------------------------------
#: Four banks, so requests of a few lines wrap and long ones cover
#: every bank.
FEW_BANKS = dataclasses.replace(SMALL_CACHES, tpu_banks=4)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       requests=st.lists(st.tuples(st.floats(min_value=0.0,
                                             max_value=400.0),
                                   st.integers(min_value=0, max_value=4096),
                                   st.integers(min_value=1, max_value=640),
                                   st.sampled_from([0.0, 50.0])),
                         min_size=1, max_size=2 * translation.VECTOR_MIN))
def test_bank_spans_match_per_line_reference(seed, requests):
    """Each request waits for the busiest bank among its lines and
    then holds every one of them: the per-line list reference, for a
    cohort and for a closed loop over the same requests."""
    unit, batched, looped = (TranslationUnit(
        FEW_BANKS, rng=np.random.default_rng(seed)) for _ in range(3))
    nbanks = FEW_BANKS.tpu_banks
    line = FEW_BANKS.tpu_line_bytes
    hold = FEW_BANKS.tpu_bank_busy_ns
    arrivals = sorted(arrival for arrival, _, _, _ in requests)
    finishes = []
    for arrival, (_, offset, size, _) in zip(arrivals, requests):
        banks = [index % nbanks for index in
                 range(offset // line, (offset + size - 1) // line + 1)]
        before = list(unit._bank_busy)
        issue = max(arrival, unit._pipe_busy)
        finish, parts = unit.admit(arrival, "mr", offset, size,
                                   want_breakdown=True)
        assert parts.bank_wait == max(max(before[b] for b in banks),
                                      issue) - issue
        assert unit._bank_busy == [
            max(old, finish + hold) if bank in banks else old
            for bank, old in enumerate(before)]
        finishes.append(finish)
    offs = np.array([offset for _, offset, _, _ in requests])
    lengths = np.array([size for _, _, size, _ in requests])
    got = batched.admit_batch(np.array(arrivals), "mr", offs, lengths)
    assert got == finishes
    assert unit_state(batched) == unit_state(unit)

    gaps = [gap for _, _, _, gap in requests]
    oracle = TranslationUnit(FEW_BANKS, rng=np.random.default_rng(seed))
    now, expected = 0.0, []
    for offset, size, gap in zip(offs.tolist(), lengths.tolist(), gaps):
        now, _ = oracle.admit(now + gap, "mr", offset, size)
        expected.append(now)
    mr = translation.mr_cache_id("mr")
    got = looped.admit_closed_loop(np.full(len(gaps), mr), offs, lengths,
                                   np.array(gaps))
    assert got.tolist() == expected
    assert unit_state(looped) == unit_state(oracle)


# ----------------------------------------------------------------------
# The bulk cache replay against access() in order
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from([(4, 2), (8, 2), (8, 4), (6, 3), (16, 8),
                              (2048, 8)]),
       resident=st.one_of(st.just([]),
                          st.lists(st.integers(min_value=0, max_value=40),
                                   max_size=20)),
       codes=st.lists(st.integers(min_value=0, max_value=40), min_size=1,
                      max_size=60),
       later=st.lists(st.integers(min_value=0, max_value=40), max_size=4),
       pairs=st.booleans())
def test_bulk_cache_replay_matches_access(shape, resident, codes, later,
                                          pairs):
    """Tiny caches, so sets evict; an empty cache (the bulk replay) or
    resident keys from earlier accesses; repeated keys; then a few
    scalar accesses.  Integer keys and ``(mr, segment)`` pairs, the
    MPT's and the MTT's key shapes."""
    def key(code):
        return (code % 3, code) if pairs else code

    def keys_of(codes):
        return [key(code) for code in codes.tolist()]

    def sets_of(codes, nsets):
        if pairs:
            return caches.pair_sets(codes % 3, codes, nsets)
        return caches.int_sets(codes, nsets)

    bulk, oracle = (SetAssocCache(*shape) for _ in range(2))
    for cache in (bulk, oracle):
        for code in resident:
            cache.access(key(code))
    missed = bulk.access_many(np.array(codes, dtype=np.int64), keys_of,
                              sets_of)
    expected = [not oracle.access(key(code)) for code in codes]
    assert missed.tolist() == expected
    assert [bulk.access(key(code)) for code in later] == \
        [oracle.access(key(code)) for code in later]
    assert bulk.checkpoint() == oracle.checkpoint()


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from([(4, 2), (8, 2), (6, 3), (2048, 8)]),
       rows=st.lists(st.tuples(
           st.lists(st.integers(min_value=0, max_value=30), max_size=8),
           st.lists(st.integers(min_value=0, max_value=30), max_size=40)),
           min_size=1, max_size=5),
       later=st.lists(st.integers(min_value=0, max_value=30), max_size=4))
def test_bulk_cache_replay_of_several_caches(shape, rows, later):
    """``access_rows`` on several caches at once — some holding keys,
    some empty, rows of any length, the same codes in several rows —
    against ``access`` in order on each cache alone."""
    bulk, oracle = ([SetAssocCache(*shape) for _ in rows] for _ in range(2))
    for (resident, _), *pair in zip(rows, bulk, oracle):
        for cache in pair:
            for code in resident:
                cache.access(code)
    codes = np.array([code for _, row in rows for code in row],
                     dtype=np.int64)
    bounds = np.cumsum([0] + [len(row) for _, row in rows])
    missed = caches.access_rows(bulk, codes, bounds, np.ndarray.tolist,
                                caches.int_sets)
    expected = [not cache.access(code)
                for cache, (_, row) in zip(oracle, rows) for code in row]
    assert missed.tolist() == expected
    for cache, twin in zip(bulk, oracle):
        assert [cache.access(code) for code in later] == \
            [twin.access(code) for code in later]
        assert cache.checkpoint() == twin.checkpoint()


def test_pair_hash_matches_the_interpreter():
    """The bulk MTT set index is ``hash((mr, segment)) % sets``."""
    assert caches.pair_hash_exact()
    first = np.array([0, 1, 7, (1 << 32) - 1, 12345], dtype=np.int64)
    second = np.array([0, 2, 7, (1 << 31) - 1, 1 << 30], dtype=np.int64)
    assert caches.pair_sets(first, second, 256).tolist() == [
        hash(pair) % 256 for pair in zip(first.tolist(), second.tolist())]
