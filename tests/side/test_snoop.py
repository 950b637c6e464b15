"""Tests for the disaggregated-memory snooping attack (Figure 13)."""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.side.snoop as snoop
from repro.analysis import normalized_cross_correlation
from repro.side import (
    CANDIDATE_OFFSETS,
    OBSERVATION_OFFSETS,
    SnoopConfig,
    SnoopDataset,
    TraceSynthesizer,
    capture_trace_sim,
    evaluate_classifier,
    nearest_centroid,
)


def bump_strength(trace, victim_offset):
    obs = np.asarray(OBSERVATION_OFFSETS)
    zone = (obs >= victim_offset) & (obs < victim_offset + 64)
    return trace[zone].mean() - trace[~zone].mean()


class TestSets:
    def test_candidate_set_matches_paper(self):
        assert len(CANDIDATE_OFFSETS) == 17
        assert CANDIDATE_OFFSETS[0] == 0
        assert CANDIDATE_OFFSETS[-1] == 1024
        assert all(o % 64 == 0 for o in CANDIDATE_OFFSETS)

    def test_observation_set_matches_paper(self):
        assert len(OBSERVATION_OFFSETS) == 257
        assert OBSERVATION_OFFSETS[0] == 0
        assert OBSERVATION_OFFSETS[-1] == 1024

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SnoopConfig(probes_per_point=0)
        with pytest.raises(ValueError):
            SnoopConfig(victim_duty=0.0)
        with pytest.raises(ValueError):
            SnoopConfig(ambient_rate=1.0)


class TestSynthesizer:
    def test_trace_shape(self):
        trace = TraceSynthesizer(seed=0).trace(0)
        assert trace.shape == (257,)
        assert (trace > 0).all()

    def test_bump_at_victim_offset(self):
        """The contention bump sits exactly on the victim's record."""
        synthesizer = TraceSynthesizer(seed=1)
        for victim in (0, 512, 1024):
            trace = synthesizer.trace(victim)
            assert bump_strength(trace, victim) > 0, victim

    def test_bump_location_is_discriminative(self):
        """The argmax of a smoothed trace lands near the victim's line."""
        from repro.analysis import moving_average

        synthesizer = TraceSynthesizer(seed=2)
        obs = np.asarray(OBSERVATION_OFFSETS)
        hits = 0
        for victim in CANDIDATE_OFFSETS:
            strengths = [
                bump_strength(moving_average(synthesizer.trace(victim), 8), c)
                for c in CANDIDATE_OFFSETS
            ]
            guess = CANDIDATE_OFFSETS[int(np.argmax(strengths))]
            hits += abs(guess - victim) <= 64
        assert hits >= 14  # most single traces localize within one line

    def test_invalid_victim_rejected(self):
        with pytest.raises(ValueError):
            TraceSynthesizer(seed=0).trace(100)  # not 64-aligned

    def test_labelled_traces_shapes(self):
        x, y = TraceSynthesizer(seed=3).labelled_traces(per_class=2)
        assert x.shape == (34, 257)
        assert sorted(set(y)) == list(range(17))

    def test_traces_reproducible(self):
        a = TraceSynthesizer(seed=5).trace(128)
        b = TraceSynthesizer(seed=5).trace(128)
        np.testing.assert_allclose(a, b)


class TestDecisionDraws:
    """The per-slot victim/ambient draws: replayed from PCG64's raw
    words when the self-check passes, public calls otherwise."""

    @pytest.mark.parametrize("carry", [False, True])
    def test_raw_replay_equals_public_calls(self, carry):
        replayed = np.random.default_rng(11)
        by_call = np.random.default_rng(11)
        if carry:  # leave half a raw word buffered for the first stray
            replayed.integers(0, snoop.STRAY_LINES)
            by_call.integers(0, snoop.STRAY_LINES)
        got = snoop._decisions_from_raw(replayed, 777, 0.3, 0.6)
        want = snoop._decisions_by_call(by_call, 777, 0.3, 0.6)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert replayed.bit_generator.state == by_call.bit_generator.state
        assert replayed.random() == by_call.random()

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1),
           slots=st.integers(min_value=0, max_value=400),
           duty=st.floats(min_value=0.0, max_value=1.0),
           rate=st.one_of(st.sampled_from([0.0, 0.25, 0.999, 1.0]),
                          st.floats(min_value=0.0, max_value=1.0)),
           carry=st.booleans())
    def test_raw_replay_matches_public_calls_anywhere(self, seed, slots,
                                                      duty, rate, carry):
        """Any slot count, duty and ambient rate, with and without a
        buffered uint32: the same draws and the same generator state."""
        replayed = np.random.default_rng(seed)
        if carry:
            replayed.integers(0, snoop.STRAY_LINES)
        by_call = copy.deepcopy(replayed)
        got = snoop._decisions_from_raw(replayed, slots, duty, rate)
        want = snoop._decisions_by_call(by_call, slots, duty, rate)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert replayed.bit_generator.state == by_call.bit_generator.state

    def test_forced_fallback_gives_identical_traces(self):
        fast = TraceSynthesizer(seed=4)
        expected = [fast.trace(256),
                    fast.trace(512, rng=fast._trace_rng(3, 1)),
                    fast.trace(0)]
        slow = TraceSynthesizer(seed=4)
        with mock.patch.object(snoop, "raw_replay_exact",
                               lambda rng: False), \
                mock.patch.object(snoop, "_decisions_from_raw",
                                  side_effect=AssertionError("replayed")):
            got = [slow.trace(256),
                   slow.trace(512, rng=slow._trace_rng(3, 1)),
                   slow.trace(0)]
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()
        assert slow.rng.bit_generator.state == fast.rng.bit_generator.state

    def test_other_bit_generators_take_public_calls(self):
        stream = np.random.Generator(np.random.Philox(5))
        twin = np.random.Generator(np.random.Philox(5))
        with mock.patch.object(snoop, "_decisions_from_raw",
                               side_effect=AssertionError("not PCG64")):
            got = snoop.draw_decisions(stream, 300, 0.4, 0.25, replay=True)
        want = snoop._decisions_by_call(twin, 300, 0.4, 0.25)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert stream.integers(0, 2**32, 4).tolist() == \
            twin.integers(0, 2**32, 4).tolist()

    def test_self_check_passes_on_this_numpy(self):
        # not a correctness requirement (the fallback is exact), but a
        # failing self-check silently costs fig13 its fast draws
        assert snoop.raw_replay_exact(np.random.default_rng(0))

    def test_self_check_rejects_a_wrong_replay(self):
        def off_by_one(rng, slots, duty, rate):
            victim, stray = snoop._decisions_by_call(rng, slots, duty, rate)
            rng.random()  # consumes one word too many
            return victim, stray

        with mock.patch.object(snoop, "_decisions_from_raw", off_by_one):
            assert not snoop.raw_replay_exact(np.random.default_rng(0))


class TestParallelSynthesis:
    def test_jobs_build_byte_identical(self):
        serial_x, serial_y = TraceSynthesizer(seed=9).labelled_traces(
            per_class=2)
        parallel_x, parallel_y = TraceSynthesizer(seed=9).labelled_traces(
            per_class=2, jobs=3)
        np.testing.assert_array_equal(serial_x, parallel_x)
        np.testing.assert_array_equal(serial_y, parallel_y)

    def test_class_block_independent_of_build_order(self):
        # class 5's traces must not depend on classes 0-4 having been
        # synthesized first — that independence is what makes any
        # partitioning across workers reproduce the serial build
        block = TraceSynthesizer(seed=9).class_traces(5, per_class=2)
        full, _ = TraceSynthesizer(seed=9).labelled_traces(per_class=2)
        np.testing.assert_array_equal(block, full[10:12])

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            TraceSynthesizer(seed=0).labelled_traces(per_class=1, jobs=0)


class TestSimCapture:
    def test_sim_trace_bump_position(self):
        trace = capture_trace_sim(512, seed=1)
        assert trace.shape == (257,)
        assert bump_strength(trace, 512) > 0

    def test_sim_and_synth_agree_on_bump(self):
        """The fast path's discriminative feature (bump location) must
        match the full pipeline's."""
        for victim in (0, 768):
            sim_trace = capture_trace_sim(victim, seed=2)
            syn_trace = TraceSynthesizer(seed=2).trace(victim)
            sim_bump = bump_strength(sim_trace, victim)
            syn_bump = bump_strength(syn_trace, victim)
            assert sim_bump > 0 and syn_bump > 0


class TestClassifier:
    @pytest.fixture(scope="class")
    def dataset(self):
        return SnoopDataset.generate(per_class=24, seed=7)

    def test_dataset_shapes(self, dataset):
        assert dataset.x.shape == (17 * 24, 1, 257)
        assert dataset.num_classes == 17

    def test_normalization(self, dataset):
        means = dataset.x[:, 0, :].mean(axis=1)
        assert np.abs(means).max() < 1e-9

    def test_resnet_recovers_addresses(self, dataset):
        """Figure 13(b): high 17-way accuracy (paper: 95.6 %).  The
        small CI dataset trades a few points of accuracy for runtime."""
        report = evaluate_classifier(dataset, epochs=10, seed=1)
        assert report.test_accuracy > 0.75
        assert report.confusion.shape == (17, 17)
        assert report.confusion.sum() == len(dataset.y) - int(len(dataset.y) * 0.75)

    def test_centroid_baseline_also_works(self, dataset):
        assert nearest_centroid(dataset) > 0.7

    def test_per_class_accuracy_shape(self, dataset):
        report = evaluate_classifier(dataset, epochs=6, seed=2)
        rates = report.per_class_accuracy
        assert rates.shape == (17,)
        assert ((0.0 <= rates) & (rates <= 1.0)).all()
