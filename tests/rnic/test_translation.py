"""Unit tests for the Translation & Protection Unit — the offset effect.

These tests pin down the microarchitectural behaviours that Section IV-C
reverse engineers (Key Finding 4): alignment-dependent service times,
2048 B bank periodicity, MR-switch penalties, and cross-requester
coupling through bank occupancy.
"""

import dataclasses

import numpy as np
import pytest

from repro.rnic import TranslationUnit, cx5


def quiet_spec():
    """CX-5 with noise disabled for deterministic latency assertions."""
    return dataclasses.replace(cx5(), jitter_frac=0.0, spike_prob=0.0)


def make_unit():
    return TranslationUnit(quiet_spec(), rng=np.random.default_rng(0))


def service_of(unit, offset, size=64, mr="mr0", gap=1e6):
    """Service latency of an isolated request (spaced far apart so no
    bank/pipeline carryover).  Warms the MPT/MTT caches and segment
    register with an access to another line of the same segment so that
    only the offset-dependent components differ between calls."""
    warm_offset = (offset // 2048) * 2048 + ((offset + 1024) % 2048 // 64) * 64
    unit.admit(unit._pipe_busy + gap, mr, warm_offset, 8)
    now = unit._pipe_busy + gap
    finish, bd = unit.admit(now, mr, offset, size, want_breakdown=True)
    return finish - now, bd


class TestAlignmentPenalties:
    def test_unaligned8_slower_than_aligned(self):
        unit = make_unit()
        aligned, _ = service_of(unit, 0)
        unaligned, bd = service_of(unit, 255)
        assert bd.alignment == unit.spec.tpu_sub8_penalty_ns
        assert unaligned > aligned

    def test_8_aligned_but_not_64_pays_smaller_penalty(self):
        unit = make_unit()
        _, bd8 = service_of(unit, 8)
        _, bd64 = service_of(unit, 64)
        _, bd255 = service_of(unit, 255)
        assert bd64.alignment == 0.0
        assert bd8.alignment == unit.spec.tpu_sub64_penalty_ns
        assert bd255.alignment == unit.spec.tpu_sub8_penalty_ns
        assert bd255.alignment > bd8.alignment > bd64.alignment

    def test_stat_counters(self):
        unit = make_unit()
        service_of(unit, 255)
        service_of(unit, 8)
        service_of(unit, 0)
        # warm-up accesses inside service_of are 64 B-aligned, so only
        # the measured requests contribute to the alignment counters
        assert unit.stats.unaligned8 == 1
        assert unit.stats.unaligned64 == 1
        assert unit.stats.requests == 6  # 3 measured + 3 warm-ups


class TestPeriodicWave:
    def test_wave_has_2048_period(self):
        unit = make_unit()
        _, a = service_of(unit, 512)
        _, b = service_of(unit, 512 + 2048)
        assert a.wave == pytest.approx(b.wave)

    def test_wave_zero_at_segment_start_max_at_middle(self):
        unit = make_unit()
        _, start = service_of(unit, 0)
        _, middle = service_of(unit, 1024)
        assert start.wave == pytest.approx(0.0)
        assert middle.wave == pytest.approx(unit.spec.tpu_segment_wave_ns)


class TestHistoryEffects:
    def test_mr_switch_penalty(self):
        unit = make_unit()
        unit.admit(0.0, "mrA", 0, 64)
        _, bd_same = unit.admit(1e6, "mrA", 64, 64, want_breakdown=True)
        _, bd_diff = unit.admit(2e6, "mrB", 0, 64, want_breakdown=True)
        assert bd_same.mr_switch == 0.0
        assert bd_diff.mr_switch == unit.spec.tpu_mr_switch_ns
        assert unit.stats.mr_switches == 1

    def test_segment_switch_penalty(self):
        unit = make_unit()
        unit.admit(0.0, "mr", 0, 64)
        _, same_seg = unit.admit(1e6, "mr", 128, 64, want_breakdown=True)
        _, diff_seg = unit.admit(2e6, "mr", 4096, 64, want_breakdown=True)
        assert same_seg.segment == 0.0
        assert diff_seg.segment == unit.spec.tpu_segment_miss_ns

    def test_same_line_lock(self):
        unit = make_unit()
        unit.admit(0.0, "mr", 0, 64)
        _, repeat = unit.admit(1e6, "mr", 0, 64, want_breakdown=True)
        assert repeat.line_lock == unit.spec.tpu_same_line_lock_ns
        _, other = unit.admit(2e6, "mr", 128, 64, want_breakdown=True)
        assert other.line_lock == 0.0


class TestBankContention:
    def test_same_bank_back_to_back_serializes(self):
        spec = quiet_spec()
        unit_same = TranslationUnit(spec, rng=np.random.default_rng(0))
        # two immediate requests to the same bank (2048 apart)
        f1, _ = unit_same.admit(0.0, "mr", 0, 64)
        f2, bd = unit_same.admit(f1, "mr", 2048, 64, want_breakdown=True)
        assert bd.bank_wait > 0.0

        unit_diff = TranslationUnit(spec, rng=np.random.default_rng(0))
        g1, _ = unit_diff.admit(0.0, "mr", 0, 64)
        g2, bd2 = unit_diff.admit(g1, "mr", 512, 64, want_breakdown=True)
        assert bd2.bank_wait == 0.0
        assert f2 > g2

    def test_cross_requester_coupling(self):
        """A victim hammering one line raises an attacker's latency on
        the same bank but not on a distant bank — the core of the
        Section VI-B snooping attack."""
        spec = quiet_spec()

        def probe_latency(victim_offset, probe_offset):
            unit = TranslationUnit(spec, rng=np.random.default_rng(1))
            now = 0.0
            # victim floods its line
            for _ in range(4):
                now, _ = unit.admit(now, "mr", victim_offset, 64)
            start = now
            finish, _ = unit.admit(start, "mr", probe_offset, 64)
            return finish - start

        same_bank = probe_latency(0, 2048)   # same bank, different line
        far_bank = probe_latency(0, 1024)    # distant bank
        assert same_bank > far_bank

    def test_mtt_miss_penalty_on_cold_segment(self):
        unit = make_unit()
        _, cold = unit.admit(0.0, "mr", 0, 64, want_breakdown=True)
        _, warm = unit.admit(1e6, "mr", 8, 64, want_breakdown=True)
        assert cold.cache_miss > 0.0
        assert warm.cache_miss == 0.0


class TestPipelineSerialization:
    def test_back_to_back_requests_queue(self):
        unit = make_unit()
        f1, _ = unit.admit(0.0, "mr", 0, 64)
        # second request arrives immediately; must wait for the pipe
        f2, _ = unit.admit(0.0, "mr", 512, 64)
        assert f2 >= f1


class TestJitter:
    def test_jitter_disabled_is_deterministic(self):
        unit = make_unit()
        lat1, _ = service_of(unit, 64)
        unit2 = make_unit()
        lat2, _ = service_of(unit2, 64)
        assert lat1 == lat2

    def test_jitter_enabled_varies(self):
        spec = cx5()
        unit = TranslationUnit(spec, rng=np.random.default_rng(7))
        lats = set()
        for i in range(10):
            lat, _ = service_of(unit, 64 * (i + 1) * 3)
            lats.add(round(lat, 3))
        assert len(lats) > 1

    def test_jitter_never_makes_service_negative(self):
        spec = dataclasses.replace(cx5(), jitter_frac=5.0, spike_prob=0.5)
        unit = TranslationUnit(spec, rng=np.random.default_rng(3))
        for i in range(200):
            lat, _ = service_of(unit, 64 * i)
            assert lat > 0.0


class TestCheckpoint:
    def test_restoring_twice_gives_the_same_unit(self):
        """A checkpoint stays intact after a restore: admits on the
        restored unit must not write into the checkpoint's bank list."""
        unit = TranslationUnit(cx5(), rng=np.random.default_rng(5))
        unit.admit(0.0, "mr", 0, 64)
        state = unit.checkpoint()
        runs = []
        for _ in range(2):
            unit.restore(state)
            finishes = [unit.admit(unit._pipe_busy, "mr", offset, 64)[0]
                        for offset in (64, 128, 0)]
            runs.append((finishes, list(unit._bank_busy)))
        assert runs[0] == runs[1]
        assert state[1] != runs[0][1]
