"""Tests for the per-link fault models (repro.faults.models)."""

import numpy as np
import pytest

from repro.faults import GilbertElliott, LinkFlap


class TestGilbertElliott:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            GilbertElliott(p_enter_bad=1.5)
        with pytest.raises(ValueError):
            GilbertElliott(loss_bad=-0.1)

    def test_stationary_loss(self):
        ge = GilbertElliott(p_enter_bad=0.01, p_exit_bad=0.09,
                            loss_good=0.0, loss_bad=0.5)
        # pi_bad = 0.01 / 0.1 = 0.1 -> 0.1 * 0.5
        assert ge.stationary_loss == pytest.approx(0.05)

    def test_stationary_loss_frozen_chain(self):
        ge = GilbertElliott(p_enter_bad=0.0, p_exit_bad=0.0,
                            loss_bad=0.5, start_bad=True)
        assert ge.stationary_loss == pytest.approx(0.5)

    def test_empirical_loss_matches_stationary(self):
        ge = GilbertElliott(p_enter_bad=0.02, p_exit_bad=0.2, loss_bad=0.5)
        rng = np.random.default_rng(0)
        losses = sum(ge.drop(float(i), rng) for i in range(40_000))
        assert losses / 40_000 == pytest.approx(ge.stationary_loss, rel=0.2)

    def test_losses_are_bursty(self):
        """Consecutive-frame losses must exceed the i.i.d. rate: that is
        the entire point of the two-state chain."""
        ge = GilbertElliott(p_enter_bad=0.01, p_exit_bad=0.1, loss_bad=0.8)
        rng = np.random.default_rng(1)
        drops = [ge.drop(float(i), rng) for i in range(40_000)]
        loss_rate = sum(drops) / len(drops)
        pairs = sum(a and b for a, b in zip(drops, drops[1:]))
        conditional = pairs / max(1, sum(drops[:-1]))
        assert conditional > 2.0 * loss_rate

    def test_reset_replays_identically(self):
        ge = GilbertElliott(p_enter_bad=0.05, p_exit_bad=0.2, loss_bad=0.6)
        first = [ge.drop(float(i), np.random.default_rng(7))
                 for i in range(50)]
        # without reset the chain state carries over...
        carried = [ge.drop(float(i), np.random.default_rng(7))
                   for i in range(50)]
        ge.reset()
        replayed = [ge.drop(float(i), np.random.default_rng(7))
                    for i in range(50)]
        assert replayed == first
        # (sanity: the drop sequence genuinely depends on chain state —
        # same rng draws, but drops may differ when mid-burst)
        assert len(carried) == len(first)

    def test_good_state_with_zero_loss_consumes_one_draw(self):
        """In the lossless good state only the transition draw happens,
        keeping replays aligned when the fault is armed but quiet."""
        ge = GilbertElliott(p_enter_bad=0.0, p_exit_bad=0.5, loss_good=0.0)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state["state"]["state"]
        assert ge.drop(0.0, rng) is False
        one_draw = np.random.default_rng(0)
        one_draw.random()
        assert (rng.bit_generator.state["state"]["state"]
                == one_draw.bit_generator.state["state"]["state"])


class TestLinkFlap:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkFlap(period_ns=0.0)
        with pytest.raises(ValueError):
            LinkFlap(period_ns=100.0, down_ns=200.0)
        with pytest.raises(ValueError):
            LinkFlap(first_down_ns=-1.0)

    def test_down_windows(self):
        flap = LinkFlap(first_down_ns=1000.0, period_ns=500.0, down_ns=100.0)
        assert not flap.down(0.0)
        assert not flap.down(999.0)
        assert flap.down(1000.0)
        assert flap.down(1099.0)
        assert not flap.down(1100.0)
        # the next period's window
        assert flap.down(1500.0)
        assert not flap.down(1600.0)

