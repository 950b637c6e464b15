"""A store-and-forward switched fabric.

The paper's testbed is hosts on one RoCE switch (Table II); we model a
single switch whose per-hop cost is the store-and-forward delay plus
fiber propagation on each link.  Per-port serialization happens at the
NICs' wire stations, so the switch itself only adds latency (its
backplane is provisioned above the sum of port rates, as real ToR
switches are).
"""

from __future__ import annotations

import dataclasses
from typing import Hashable

import numpy as np


class LinkFault:
    """Dynamic per-link fault process consulted on every frame.

    The base class is the identity fault (never drops, never goes down).
    Concrete processes — Gilbert–Elliott bursty loss, link flaps — live
    in :mod:`repro.faults.models`; the fabric only defines the contract
    so lower layers stay independent of the fault-injection subsystem.

    Determinism contract: ``drop`` may consume random draws but ONLY
    from the generator passed in (a named ``sim.random`` stream), and
    any internal state must be a pure function of the draw sequence, so
    identical seeds replay bit-identically.  ``reset`` must restore the
    initial state; installers call it so one model instance can serve
    several replays.
    """

    def drop(self, now: float, rng: np.random.Generator) -> bool:
        """Whether a frame crossing the link at ``now`` is lost."""
        return False

    def down(self, now: float) -> bool:
        """Whether the link is administratively down at ``now``
        (drops every frame without consuming randomness)."""
        return False

    def reset(self) -> None:
        """Restore the initial state before a (re)install."""


@dataclasses.dataclass(frozen=True)
class Link:
    """A fiber between an RNIC port and a switch port.

    ``loss_probability`` models corrupted/dropped frames; RoCE fabrics
    are engineered to be nearly lossless (PFC), so the default is 0 and
    the RC transport's retransmission handles the rest.
    """

    propagation_ns: float = 200.0
    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.propagation_ns < 0:
            raise ValueError("propagation must be non-negative")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss probability must be in [0, 1)")


@dataclasses.dataclass(frozen=True)
class Switch:
    """A single store-and-forward switch hop."""

    forward_ns: float = 300.0

    def __post_init__(self) -> None:
        if self.forward_ns < 0:
            raise ValueError("forward delay must be non-negative")


class Network:
    """Registry of endpoints hanging off one switch."""

    def __init__(self, switch: Switch | None = None) -> None:
        self.switch = switch if switch is not None else Switch()
        self._links: dict[Hashable, Link] = {}
        self._faults: dict[Hashable, LinkFault] = {}

    def attach(self, endpoint: Hashable, link: Link | None = None) -> None:
        """Attach an endpoint (an RNIC) with its access link."""
        if endpoint in self._links:
            raise ValueError(f"endpoint {endpoint!r} already attached")
        self._links[endpoint] = link if link is not None else Link()

    def attached(self, endpoint: Hashable) -> bool:
        return endpoint in self._links

    def transit_ns(self, src: Hashable, dst: Hashable) -> float:
        """One-way latency from ``src`` to ``dst`` (excluding
        serialization, which the sending NIC's wire station accounts)."""
        try:
            src_link = self._links[src]
            dst_link = self._links[dst]
        except KeyError as missing:
            raise KeyError(f"endpoint {missing.args[0]!r} not attached") from None
        if src is dst:
            return 0.0  # loopback never leaves the NIC
        return src_link.propagation_ns + self.switch.forward_ns + dst_link.propagation_ns

    def loss_probability(self, src: Hashable, dst: Hashable) -> float:
        """End-to-end frame-loss probability of the src->dst path."""
        try:
            src_link = self._links[src]
            dst_link = self._links[dst]
        except KeyError as missing:
            raise KeyError(f"endpoint {missing.args[0]!r} not attached") from None
        if src is dst:
            return 0.0
        survive = (1.0 - src_link.loss_probability) * (1.0 - dst_link.loss_probability)
        return 1.0 - survive

    # ------------------------------------------------------------------
    # Dynamic faults (see repro.faults)
    # ------------------------------------------------------------------
    def set_fault(self, endpoint: Hashable, fault: LinkFault | None) -> None:
        """Install (or clear, with ``None``) a dynamic fault process on
        one endpoint's access link.  The model is ``reset()`` on
        install so replays from a fresh simulator start identically."""
        if endpoint not in self._links:
            raise KeyError(f"endpoint {endpoint!r} not attached")
        if fault is None:
            self._faults.pop(endpoint, None)
            return
        fault.reset()
        self._faults[endpoint] = fault

    def fault_of(self, endpoint: Hashable) -> LinkFault | None:
        """The dynamic fault process installed on an endpoint's link."""
        return self._faults.get(endpoint)

    @property
    def has_faults(self) -> bool:
        """True while any endpoint carries a dynamic fault process.
        Fault processes make loss time-dependent, so the batched
        descriptor fast path routes around them entirely."""
        return bool(self._faults)

    def frame_lost(
        self, src: Hashable, dst: Hashable,
        now: float, rng: np.random.Generator,
    ) -> bool:
        """Whether one frame crossing ``src -> dst`` at ``now`` is lost.

        Combines the static Bernoulli ``loss_probability`` of the two
        access links with any installed dynamic fault processes.  The
        random draw order (static first, then ``src``'s model, then
        ``dst``'s) is fixed so replays are bit-identical; with no loss
        configured, no randomness is consumed at all, keeping
        pre-existing seeds stable.
        """
        if src is dst:
            return False
        static = self.loss_probability(src, dst)
        if static > 0.0 and rng.random() < static:
            return True
        for endpoint in (src, dst):
            fault = self._faults.get(endpoint)
            if fault is not None and (fault.down(now) or fault.drop(now, rng)):
                return True
        return False
