"""Differential oracle for the class batch: every row of
``TraceSynthesizer.class_traces`` against ``trace()`` run alone on the
same stream — the trace bytes, the stream's state afterwards and every
unit's stats, caches, registers, horizons and jitter stream — with the
bulk replays on, with each of their guards forced off, and on a
non-PCG64 stream."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.rnic.jitter as jitter
import repro.side.snoop as snoop
from repro.rnic import TranslationUnit
from repro.side import CANDIDATE_OFFSETS, SnoopConfig, TraceSynthesizer


def plain(state):
    """A generator state with its arrays (Philox's) as lists."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def unit_state(unit: TranslationUnit) -> tuple:
    """Everything an admission may change."""
    caches = [(cache.hits, cache.misses, cache.evictions, cache.resident())
              for cache in (unit.mpt_cache, unit.mtt_cache)]
    return (dataclasses.asdict(unit.stats), list(unit._bank_busy),
            unit._pipe_busy, unit._last_mr, unit._last_seg_mr,
            unit._last_seg_idx, unit._last_line_mr, unit._last_line_idx,
            caches, unit.rng.bit_generator.state)


def recorded(synthesizer: TraceSynthesizer, philox: bool):
    """Patch in a ``TranslationUnit`` that keeps every unit built and a
    ``_trace_rng`` that keeps every stream (a Philox one when
    ``philox``); returns the patches and the two lists."""
    units: list = []
    streams: list = []

    class Recording(TranslationUnit):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            units.append(self)

    def trace_rng(label: int, repeat: int) -> np.random.Generator:
        key = np.random.SeedSequence((synthesizer.seed, label, repeat))
        stream = (np.random.Generator(np.random.Philox(key)) if philox
                  else np.random.default_rng(key))
        streams.append(stream)
        return stream

    patches = [mock.patch.object(snoop, "TranslationUnit", Recording),
               mock.patch.object(synthesizer, "_trace_rng", trace_rng)]
    return patches, units, streams


def build(config, seed, label, per_class, philox, batched):
    synthesizer = TraceSynthesizer(config=config, seed=seed)
    patches, units, streams = recorded(synthesizer, philox)
    for patch in patches:
        patch.start()
    try:
        if batched:
            traces = synthesizer.class_traces(label, per_class)
        else:
            traces = np.stack([
                synthesizer.trace(CANDIDATE_OFFSETS[label],
                                  rng=synthesizer._trace_rng(label, repeat))
                for repeat in range(per_class)])
    finally:
        for patch in patches:
            patch.stop()
    states = [plain(stream.bit_generator.state) for stream in streams]
    return traces, states, [unit_state(unit) for unit in units]


configs = st.builds(
    SnoopConfig,
    probes_per_point=st.integers(min_value=1, max_value=6),
    victim_duty=st.floats(min_value=0.05, max_value=1.0),
    ambient_rate=st.floats(min_value=0.0, max_value=0.9),
    observation_step=st.sampled_from([16, 64, 256, 1024]),
)

MODES = ["replay", "decisions-by-call", "jitter-by-call", "philox"]


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(config=configs,
       seed=st.integers(min_value=0, max_value=2**32),
       label=st.integers(min_value=0, max_value=len(CANDIDATE_OFFSETS) - 1),
       per_class=st.sampled_from([1, 2, 63, 64, 65]))
def test_class_rows_match_trace(mode, config, seed, label, per_class):
    guards = []
    if mode == "decisions-by-call":
        guards.append(mock.patch.object(snoop, "raw_replay_exact",
                                        lambda rng: False))
    if mode == "jitter-by-call":
        guards.append(mock.patch.object(jitter, "replay_exact",
                                        lambda: False))
    for guard in guards:
        guard.start()
    try:
        batch = build(config, seed, label, per_class, mode == "philox", True)
        single = build(config, seed, label, per_class, mode == "philox",
                       False)
    finally:
        for guard in guards:
            guard.stop()
    assert batch[0].shape == (per_class, len(config.observation_offsets))
    assert batch[0].tobytes() == single[0].tobytes()
    assert batch[1] == single[1]
    assert batch[2] == single[2]


def test_smoke_build_takes_no_per_row_fallback():
    """The seed-0 smoke dataset never leaves the bulk paths: no row
    draws its decisions or jitter through the public calls, no row of a
    class batch runs short of words and replays its jitter alone, and
    no drain falls back to the per-request loop."""
    synthesizer = TraceSynthesizer(seed=0)
    # the guards themselves run the public calls: settle them first
    synthesizer._replay = snoop.raw_replay_exact(synthesizer.rng)
    assert synthesizer._replay and jitter.replay_exact()
    refuse = mock.Mock(side_effect=AssertionError("per-row fallback"))
    with mock.patch.object(snoop, "_decisions_by_call", refuse), \
            mock.patch.object(jitter, "_jitter_by_call", refuse), \
            mock.patch.object(jitter, "_jitter_from_raw", refuse), \
            mock.patch.object(TranslationUnit, "_serial", refuse):
        traces, labels = synthesizer.labelled_traces(60)
    assert traces.shape == (17 * 60, 257)
    assert refuse.call_count == 0
