"""Integration tests for the three covert channels (Table V shapes)."""

import dataclasses

import pytest

from repro.covert import (
    InterMRChannel,
    IntraMRChannel,
    PAPER_BITSTREAM,
    PriorityChannel,
    random_bits,
)
from repro.covert.inter_mr import InterMRConfig
from repro.covert.intra_mr import IntraMRConfig
from repro.covert.priority_channel import PriorityChannelConfig
from repro.rnic import cx4, cx5, cx6

SPECS = {"CX-4": cx4, "CX-5": cx5, "CX-6": cx6}


class TestPriorityChannel:
    def test_transmits_paper_bitstream_error_free(self):
        """Figure 9 / Table V: the Grain I+II channel is error-free at
        ~1 bps on every device."""
        for name, factory in SPECS.items():
            result = PriorityChannel(factory()).transmit(PAPER_BITSTREAM)
            assert result.error_rate == 0.0, name
            assert 0.5 <= result.bandwidth_bps <= 2.0, name

    def test_trace_shows_two_levels(self):
        channel = PriorityChannel(cx5())
        samples = channel.trace([1, 0, 1, 0])
        values = [v for _, v in samples]
        assert max(values) > 1.5 * min(values)

    def test_empty_bits_rejected(self):
        with pytest.raises(ValueError):
            PriorityChannel(cx5()).transmit([])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PriorityChannelConfig(bit_period_ns=1.0, sample_interval_ns=1.0)


class TestInterMRChannel:
    def test_tuned_config_lookup(self):
        cfg = InterMRConfig.best_for("CX-4")
        assert cfg.msg_size == 512 and cfg.max_send_queue == 10
        cfg = InterMRConfig.best_for("CX-5")
        assert cfg.msg_size == 64 and cfg.max_send_queue == 6
        with pytest.raises(KeyError):
            InterMRConfig.best_for("CX-9")

    @pytest.mark.parametrize("warmup", [0, 2, 3])
    def test_short_warmup_rejected(self, warmup):
        """The warm-up period estimate needs two samples from the last
        half of the completions; fewer than 4 used to crash transmit."""
        with pytest.raises(ValueError, match="warm-up"):
            dataclasses.replace(InterMRConfig.best_for("CX-5"),
                                warmup_completions=warmup)

    def test_minimal_warmup_transmits(self):
        config = dataclasses.replace(InterMRConfig.best_for("CX-5"),
                                     warmup_completions=4)
        result = InterMRChannel(cx5(), config).transmit([1, 0, 1, 1])
        assert len(result.decoded) == 4

    def test_low_error_on_each_device(self):
        bits = random_bits(64, seed=2)
        for name, factory in SPECS.items():
            channel = InterMRChannel(factory(), InterMRConfig.best_for(name))
            result = channel.transmit(bits, seed=1)
            assert result.error_rate < 0.12, name

    def test_bandwidth_ordering_matches_table_v(self):
        """Table V inter-MR: CX-6 > CX-5 > CX-4."""
        bits = random_bits(96, seed=3)
        bw = {}
        for name, factory in SPECS.items():
            channel = InterMRChannel(factory(), InterMRConfig.best_for(name))
            bw[name] = channel.transmit(bits, seed=1).bandwidth_bps
        assert bw["CX-6"] > bw["CX-5"] > bw["CX-4"]

    def test_kbps_scale(self):
        """Table V: tens of Kbps, orders of magnitude above priority."""
        bits = random_bits(64, seed=4)
        result = InterMRChannel(cx5(), InterMRConfig.best_for("CX-5")).transmit(bits)
        assert result.bandwidth_bps > 20_000


class TestIntraMRChannel:
    def test_tuned_offsets_follow_footnote_11(self):
        assert IntraMRConfig.best_for("CX-4").bit_one_offset == 255
        assert IntraMRConfig.best_for("CX-5").bit_one_offset == 255
        assert IntraMRConfig.best_for("CX-6").bit_one_offset == 257
        assert IntraMRConfig.best_for("CX-4").max_send_queue == 8

    def test_low_error_on_each_device(self):
        bits = random_bits(64, seed=5)
        for name, factory in SPECS.items():
            channel = IntraMRChannel(factory(), IntraMRConfig.best_for(name))
            result = channel.transmit(bits, seed=1)
            assert result.error_rate < 0.12, name

    def test_sender_traffic_is_grain123_identical(self):
        """Stealthiness: both bit encodings are RDMA Reads of the same
        size to the same MR — only the address offset differs."""
        channel = IntraMRChannel(cx5(), IntraMRConfig.best_for("CX-5"))

        class FakeMR:
            addr, length = 0, 2 * 1024 * 1024

            def contains(self, addr, size):
                return True

        channel.shared_mr = FakeMR()
        zero = channel.sender_targets(0)
        one = channel.sender_targets(1)
        assert {t.size for t in zero} == {t.size for t in one}
        assert all(t.mr is channel.shared_mr for t in zero + one)
        assert {t.offset for t in zero} != {t.offset for t in one}


class TestChannelRobustness:
    def test_inter_mr_survives_ambient_tenant(self):
        """With a bursty background tenant the inter-MR channel's large
        signal still decodes, at a degraded error rate."""
        bits = random_bits(64, seed=6)
        cfg = InterMRConfig.best_for("CX-5", ambient=True)
        result = InterMRChannel(cx5(), cfg).transmit(bits, seed=2)
        assert result.error_rate < 0.3

    def test_effective_bandwidth_never_exceeds_raw(self):
        bits = random_bits(48, seed=7)
        result = InterMRChannel(cx5(), InterMRConfig.best_for("CX-5")).transmit(bits)
        assert result.effective_bandwidth_bps <= result.bandwidth_bps
