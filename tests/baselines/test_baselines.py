"""Tests for the Pythia baseline."""

import pytest

from repro.baselines import (
    PythiaChannel,
    PythiaConfig,
    find_eviction_set,
)
from repro.covert import random_bits
from repro.rnic import SetAssocCache, cx5
from repro.rnic.translation import mr_cache_id


class TestEvictionSet:
    def test_finds_colliding_keys(self):
        cache = SetAssocCache(entries=64, ways=4)
        target = 1000
        candidates = list(range(2000, 4000))
        eviction_set = find_eviction_set(cache, target, candidates)
        assert len(eviction_set) == 4
        target_set = cache.set_index(mr_cache_id(target))
        for rkey in eviction_set:
            assert cache.set_index(mr_cache_id(rkey)) == target_set

    def test_eviction_set_actually_evicts(self):
        cache = SetAssocCache(entries=64, ways=4)
        target = 1000
        eviction_set = find_eviction_set(cache, target, list(range(2000, 4000)))
        cache.access(mr_cache_id(target))
        for rkey in eviction_set:
            cache.access(mr_cache_id(rkey))
        assert not cache.probe(mr_cache_id(target))


class TestPythiaChannel:
    def test_transmits_with_low_error(self):
        bits = random_bits(48, seed=1)
        result = PythiaChannel(cx5()).transmit(bits)
        assert result.error_rate < 0.1

    def test_bandwidth_tens_of_kbps(self):
        """The paper quotes 20 Kbps on CX-5; the model lands in the
        same decade."""
        bits = random_bits(48, seed=2)
        result = PythiaChannel(cx5()).transmit(bits)
        assert 10_000 < result.bandwidth_bps < 100_000

    def test_slower_than_ragnar_inter_mr(self):
        """Section I's headline: Ragnar ~3x Pythia on CX-5."""
        from repro.covert import InterMRChannel
        from repro.covert.inter_mr import InterMRConfig

        bits = random_bits(64, seed=3)
        pythia = PythiaChannel(cx5()).transmit(bits)
        ragnar = InterMRChannel(
            cx5(), InterMRConfig.best_for("CX-5")
        ).transmit(bits)
        ratio = ragnar.effective_bandwidth_bps / pythia.effective_bandwidth_bps
        assert ratio > 1.8

    def test_cache_telemetry_shows_eviction_storm(self):
        """What the cache guard sees: Pythia's misses/evictions."""
        telemetry = PythiaChannel(cx5()).cache_telemetry(random_bits(32, seed=4))
        assert telemetry["misses"] > 0.25 * telemetry["accesses"]
        assert telemetry["evictions"] > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PythiaConfig(mr_pool=8)

    def test_empty_bits_rejected(self):
        with pytest.raises(ValueError):
            PythiaChannel(cx5()).transmit([])

