"""ethtool-style NIC counters.

These are the observables of the reverse-engineering methodology
(Section IV-A quotes ``ethtool`` bps/pps counters) and the inputs of the
Grain-I..III defenses: per-traffic-class byte/packet totals and
per-opcode totals.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

from repro.verbs.enums import Opcode


@dataclasses.dataclass
class DirectionCounters:
    """Byte/packet totals for one direction (tx or rx)."""

    bytes: int = 0
    packets: int = 0

    def record(self, nbytes: int, npackets: int = 1) -> None:
        self.bytes += nbytes
        self.packets += npackets


class NICCounters:
    """Aggregate, per-traffic-class, and per-opcode counters."""

    def __init__(self, num_traffic_classes: int = 8) -> None:
        self.num_traffic_classes = num_traffic_classes
        self.tx = DirectionCounters()
        self.rx = DirectionCounters()
        self.tx_per_tc = [DirectionCounters() for _ in range(num_traffic_classes)]
        self.rx_per_tc = [DirectionCounters() for _ in range(num_traffic_classes)]
        self.per_opcode: dict[Opcode, int] = defaultdict(int)
        #: RC retransmissions of any kind (timeout- or NAK-driven);
        #: ethtool's aggregate transport retry counter.
        self.retransmits = 0
        #: Retransmissions triggered by the ACK timeout specifically
        #: (``local_ack_timeout_err``): lost request or lost response.
        self.timeouts = 0
        #: RNR NAKs received as a requester (``rnr_nak_retry_err``):
        #: the peer's receive queue was empty.
        self.rnr_naks = 0
        #: WQEs force-completed with ``WR_FLUSH_ERR`` when a local QP
        #: entered the ERROR state.
        self.flushed_wqes = 0
        #: PFC pause windows honoured by the wire-Tx port (a pause
        #: storm shows up here long before throughput collapses).
        self.pause_events = 0
        #: ``post_send_batch`` cohorts this NIC (as requester) planned
        #: on the batched fast path, and the ones it sent down the
        #: scalar pipeline, per :data:`repro.rnic.batch.FALLBACK_REASONS`
        #: entry.  Simulator bookkeeping, not hardware counters: the
        #: simulated outcome is the same either way.
        self.batch_fast_cohorts = 0
        self.batch_fallbacks: dict[str, int] = {}
        #: ULI probe runs and lockstep channel sessions planned by
        #: :mod:`repro.rnic.closed_loop` (counted on the probe's, or the
        #: session receiver's, NIC); its declines count in
        #: ``batch_fallbacks`` too.
        self.closed_loop_runs = 0
        self.lockstep_runs = 0

    def _check_tc(self, tc: int) -> int:
        if not 0 <= tc < self.num_traffic_classes:
            raise ValueError(
                f"traffic class {tc} out of range 0..{self.num_traffic_classes - 1}"
            )
        return tc

    def record_tx(self, nbytes: int, tc: int = 0, opcode: Opcode | None = None) -> None:
        self.tx.record(nbytes)
        self.tx_per_tc[self._check_tc(tc)].record(nbytes)
        if opcode is not None:
            self.per_opcode[opcode] += 1

    def record_rx(self, nbytes: int, tc: int = 0) -> None:
        self.rx.record(nbytes)
        self.rx_per_tc[self._check_tc(tc)].record(nbytes)

    def record_tx_bulk(self, nbytes: int, count: int, tc: int = 0,
                       opcodes=()) -> None:
        """Fold ``count`` same-TC transmissions into the totals at once.

        Counters are integers, so the aggregate is exactly what
        ``count`` scalar :meth:`record_tx` calls would produce;
        ``opcodes`` must be iterated in admission order so the
        ``per_opcode`` dict's insertion order (visible in
        :meth:`snapshot`) matches the scalar path."""
        self.tx.record(nbytes, count)
        self.tx_per_tc[self._check_tc(tc)].record(nbytes, count)
        for opcode in opcodes:
            self.per_opcode[opcode] += 1

    def record_rx_bulk(self, nbytes: int, count: int, tc: int = 0) -> None:
        """Bulk twin of :meth:`record_rx` (exact for integer totals)."""
        self.rx.record(nbytes, count)
        self.rx_per_tc[self._check_tc(tc)].record(nbytes, count)

    def snapshot(self) -> dict:
        """A flat dict of totals, shaped like ``ethtool -S`` output."""
        snap = {
            "tx_bytes": self.tx.bytes,
            "tx_packets": self.tx.packets,
            "rx_bytes": self.rx.bytes,
            "rx_packets": self.rx.packets,
            "retransmits": self.retransmits,
            "timeouts": self.timeouts,
            "rnr_naks": self.rnr_naks,
            "flushed_wqes": self.flushed_wqes,
            "pause_events": self.pause_events,
        }
        for tc in range(self.num_traffic_classes):
            snap[f"tx_prio{tc}_bytes"] = self.tx_per_tc[tc].bytes
            snap[f"tx_prio{tc}_packets"] = self.tx_per_tc[tc].packets
            snap[f"rx_prio{tc}_bytes"] = self.rx_per_tc[tc].bytes
            snap[f"rx_prio{tc}_packets"] = self.rx_per_tc[tc].packets
        for opcode, count in self.per_opcode.items():
            snap[f"op_{opcode.value.lower()}"] = count
        # path tallies only once a planner was asked, so snapshots of
        # runs that never batch or probe keep their historical key set
        if self.batch_fast_cohorts:
            snap["batch_fast_cohorts"] = self.batch_fast_cohorts
        if self.closed_loop_runs:
            snap["closed_loop_runs"] = self.closed_loop_runs
        if self.lockstep_runs:
            snap["lockstep_runs"] = self.lockstep_runs
        for reason, count in self.batch_fallbacks.items():
            snap[f"batch_fallback_{reason}"] = count
        return snap
