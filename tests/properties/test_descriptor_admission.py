"""Differential oracles for the descriptor-array translation paths.

``TranslationUnit.admit`` is the definition; the batched paths
(``admit_batch`` cohorts and ``admit_closed_loop``, both through one
shared prepass) and ``TraceSynthesizer.trace`` built on them must agree
with it bit for bit: finishes, trace bytes, stats, cache counters,
bank and pipeline horizons, history registers and the RNG streams.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.rnic.translation as translation
import repro.side.snoop as snoop
from repro.rnic import TranslationUnit, cx5
from repro.side import CANDIDATE_OFFSETS, SnoopConfig, TraceSynthesizer

#: Small caches, so random workloads also exercise MPT/MTT evictions.
SMALL_CACHES = dataclasses.replace(
    cx5(), mpt_cache_entries=4, mpt_cache_ways=2,
    mtt_cache_entries=8, mtt_cache_ways=2,
)

#: The serial tail behind ``admit_batch``: the C drain when the
#: extension is built, and the pure-Python one REPRO_SIM_ENGINE=python
#: selects.
ENGINES = [
    pytest.param(translation._C_TPU_TAIL, id="c",
                 marks=pytest.mark.skipif(
                     translation._C_TPU_TAIL is None,
                     reason="_speedups.tpu_admit_batch not built")),
    pytest.param(None, id="python"),
]


def unit_state(unit: TranslationUnit) -> tuple:
    """Everything an admission may change."""
    caches = [(cache.hits, cache.misses, cache.evictions,
               [list(entries.items()) for entries in cache._sets])
              for cache in (unit.mpt_cache, unit.mtt_cache)]
    return (dataclasses.asdict(unit.stats), list(unit._bank_busy),
            unit._pipe_busy, unit._last_mr, unit._last_seg_mr,
            unit._last_seg_idx, unit._last_line_mr, unit._last_line_idx,
            caches, unit.rng.bit_generator.state)


def unit_pair(seed: int, history: list) -> tuple:
    """Two identical units, both warmed by the same scalar admissions
    so the batched paths start from non-fresh registers and banks."""
    units = tuple(TranslationUnit(SMALL_CACHES,
                                  rng=np.random.default_rng(seed))
                  for _ in range(2))
    for unit in units:
        for arrival, mr_id, offset, size in history:
            unit.admit(arrival, mr_id, offset, size)
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


@pytest.mark.parametrize("tail", ENGINES)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       warmup=history,
       requests=st.lists(st.tuples(mr_ids, offsets, sizes,
                                   st.sampled_from([0.0, 0.5, 50.0, 300.0])),
                         min_size=1, max_size=80))
def test_closed_loop_matches_admit_loop(tail, seed, warmup, requests):
    fast, oracle = unit_pair(seed, warmup)
    ids, offs, lengths, gaps = (list(column) for column in zip(*requests))
    with mock.patch.object(translation, "_C_TPU_TAIL", tail):
        finishes = fast.admit_closed_loop(np.array(ids), np.array(offs),
                                          np.array(lengths),
                                          np.array(gaps))
    now = oracle._pipe_busy
    expected = []
    for mr_id, offset, size, gap in requests:
        now, _ = oracle.admit(now + gap, mr_id, offset, size)
        expected.append(now)
    assert finishes.tolist() == expected
    assert unit_state(fast) == unit_state(oracle)


@pytest.mark.parametrize("tail", ENGINES)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       warmup=history,
       mr_key=st.one_of(mr_ids, st.sampled_from(["mr-a", "mr-b"])),
       requests=st.lists(st.tuples(st.floats(min_value=0.0,
                                             max_value=400.0),
                                   offsets, sizes),
                         min_size=1, max_size=3 * translation.VECTOR_MIN))
def test_cohort_matches_admit_loop(tail, seed, warmup, mr_key, requests):
    fast, oracle = unit_pair(seed, warmup)
    arrivals = sorted(arrival for arrival, _, _ in requests)
    offs = [offset for _, offset, _ in requests]
    lengths = [size for _, _, size in requests]
    with mock.patch.object(translation, "_C_TPU_TAIL", tail):
        finishes = fast.admit_batch(np.array(arrivals), mr_key,
                                    np.array(offs), np.array(lengths))
    expected = [oracle.admit(arrival, mr_key, offset, size)[0]
                for arrival, offset, size in zip(arrivals, offs, lengths)]
    assert [float(finish) for finish in finishes] == expected
    assert unit_state(fast) == unit_state(oracle)


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


@pytest.mark.parametrize("tail", ENGINES)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       requests=st.lists(st.tuples(st.floats(min_value=0.0,
                                             max_value=400.0),
                                   st.integers(min_value=0, max_value=4096),
                                   st.integers(min_value=1, max_value=640)),
                         min_size=1, max_size=2 * translation.VECTOR_MIN))
def test_bank_spans_match_per_line_reference(tail, seed, requests):
    """Each request waits for the busiest bank among its lines and
    then holds every one of them: the per-line list reference."""
    unit, batched = (TranslationUnit(FEW_BANKS,
                                     rng=np.random.default_rng(seed))
                     for _ in range(2))
    nbanks = FEW_BANKS.tpu_banks
    line = FEW_BANKS.tpu_line_bytes
    hold = FEW_BANKS.tpu_bank_busy_ns
    arrivals = sorted(arrival for arrival, _, _ in requests)
    finishes = []
    for arrival, (_, offset, size) in zip(arrivals, requests):
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
    with mock.patch.object(translation, "_C_TPU_TAIL", tail):
        got = batched.admit_batch(
            np.array(arrivals), "mr",
            np.array([offset for _, offset, _ in requests]),
            np.array([size for _, _, size in requests]))
    assert [float(finish) for finish in got] == finishes
    assert unit_state(batched) == unit_state(unit)
