"""Deterministic per-link fault models.

Each model subclasses :class:`repro.fabric.network.LinkFault` and is
consulted by the fabric on every frame (``drop``/``down``).  All models
honour the LinkFault determinism contract: randomness comes only from
the ``np.random.Generator`` passed into ``drop`` (a named
``sim.random`` stream), internal state is a pure function of the draw
sequence, and ``reset`` restores the initial state so one instance can
serve several bit-identical replays.

The models are small on purpose — robustness experiments compose them
through :class:`repro.faults.plan.FaultPlan` rather than growing one
monolithic fault class.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.fabric.network import LinkFault
from repro.sim.units import MICROSECONDS, MILLISECONDS


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


@dataclasses.dataclass
class GilbertElliott(LinkFault):
    """Two-state Markov (Gilbert–Elliott) bursty frame loss.

    The chain has a *good* state with loss ``loss_good`` (usually 0)
    and a *bad* state with loss ``loss_bad``; each frame first advances
    the chain (one uniform draw) and then samples loss in the current
    state (a second draw only when that state's loss is positive).
    Mean burst length is ``1 / p_exit_bad`` frames and the stationary
    bad-state probability is ``p_enter_bad / (p_enter_bad +
    p_exit_bad)``, which makes calibrating an average loss rate easy.
    """

    #: P(good -> bad) evaluated once per frame.
    p_enter_bad: float = 0.002
    #: P(bad -> good) evaluated once per frame; 1/p is the mean burst.
    p_exit_bad: float = 0.1
    #: Loss probability while in the good state.
    loss_good: float = 0.0
    #: Loss probability while in the bad state.
    loss_bad: float = 0.5
    #: Initial chain state (restored by ``reset``).
    start_bad: bool = False

    def __post_init__(self) -> None:
        _check_probability("p_enter_bad", self.p_enter_bad)
        _check_probability("p_exit_bad", self.p_exit_bad)
        _check_probability("loss_good", self.loss_good)
        _check_probability("loss_bad", self.loss_bad)
        self._bad = self.start_bad

    def reset(self) -> None:
        self._bad = self.start_bad

    @property
    def stationary_loss(self) -> float:
        """Long-run average loss probability of the chain."""
        total = self.p_enter_bad + self.p_exit_bad
        if total > 0.0:
            pi_bad = self.p_enter_bad / total
        else:  # frozen chain: it stays wherever it starts
            pi_bad = 1.0 if self.start_bad else 0.0
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    def drop(self, now: float, rng: np.random.Generator) -> bool:
        # Advance the chain, then sample loss in the state we landed in.
        # Draw order is fixed (transition draw always happens, loss draw
        # only when the state is lossy) so replays are bit-identical.
        if self._bad:
            if rng.random() < self.p_exit_bad:
                self._bad = False
        elif rng.random() < self.p_enter_bad:
            self._bad = True
        loss = self.loss_bad if self._bad else self.loss_good
        return bool(loss > 0.0 and rng.random() < loss)


@dataclasses.dataclass
class LinkFlap(LinkFault):
    """Periodic administrative link flaps.

    Starting at ``first_down_ns`` the link goes down for ``down_ns``
    out of every ``period_ns``.  While down, every frame is dropped
    without consuming randomness (the cable is unplugged, not lossy).
    """

    first_down_ns: float = 1 * MILLISECONDS
    period_ns: float = 2 * MILLISECONDS
    down_ns: float = 200 * MICROSECONDS

    def __post_init__(self) -> None:
        if self.period_ns <= 0.0:
            raise ValueError(f"period must be positive, got {self.period_ns!r}")
        if not 0.0 <= self.down_ns <= self.period_ns:
            raise ValueError("down time must be within one period")
        if self.first_down_ns < 0.0:
            raise ValueError("first flap time must be non-negative")

    def down(self, now: float) -> bool:
        if now < self.first_down_ns:
            return False
        return (now - self.first_down_ns) % self.period_ns < self.down_ns

