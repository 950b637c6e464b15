"""Queue pairs."""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from repro.verbs.enums import (
    QP_TRANSITIONS,
    Opcode,
    QPState,
    QPType,
    WCStatus,
)
from repro.verbs.errors import QPStateError, QueueFullError, ResourceError
from repro.verbs.wr import RecvWR, SendWR, WorkCompletion, make_completion

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.cq import CompletionQueue
    from repro.verbs.pd import ProtectionDomain


@dataclasses.dataclass(frozen=True)
class QPCapabilities:
    """Queue sizing.  ``max_send_wr`` is the paper's *max send queue
    size* knob — the key parameter of the ULI channels (Table V)."""

    max_send_wr: int = 128
    max_recv_wr: int = 128
    max_inline_data: int = 188

    def __post_init__(self) -> None:
        if self.max_send_wr <= 0 or self.max_recv_wr <= 0:
            raise ResourceError("queue capacities must be positive")


class QueuePair:
    """An RC/UC/UD queue pair.

    The QP owns its posted-but-incomplete send WQEs; the backing engine
    drains them and calls :meth:`complete_send`.  ``queue_ahead`` is
    recorded on each WQE at post time so completions can compute ULI.
    """

    def __init__(
        self,
        pd: "ProtectionDomain",
        qp_num: int,
        qp_type: QPType,
        send_cq: "CompletionQueue",
        recv_cq: "CompletionQueue",
        cap: QPCapabilities,
        traffic_class: int = 0,
    ) -> None:
        self.pd = pd
        self.context = pd.context
        self.qp_num = qp_num
        self.qp_type = qp_type
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.cap = cap
        self.traffic_class = traffic_class
        self.state = QPState.RESET
        self.remote_qp: Optional["QueuePair"] = None
        self._outstanding_send = 0
        #: Posted-but-incomplete send WQEs, keyed by object identity.
        #: Insertion-ordered (flush retires FIFO) with O(1) removal —
        #: the old list scanned by dataclass value-equality, which was
        #: quadratic in queue depth on the completion hot path (and
        #: could alias two identical WQEs).  Keys stay unique because
        #: the dict holds its WQEs alive while they are present.
        self._inflight_sends: dict[int, SendWR] = {}
        self._recv_queue: list[RecvWR] = []
        self._destroyed = False
        #: Grain-III defense counters: what per-QP telemetry exposes.
        self.total_posted = 0
        self.total_completed = 0
        self.bytes_posted = 0
        self.opcode_counts: dict[Opcode, int] = {}
        self.size_counts: dict[int, int] = {}
        pd.qps.append(self)

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def modify(self, new_state: QPState) -> None:
        """``ibv_modify_qp``: validated state transition.

        Moving to ERR flushes every outstanding WQE with
        ``WR_FLUSH_ERR`` (the verbs error-state contract); moving to
        RESET silently discards them (buffers are forfeited).
        """
        if new_state not in QP_TRANSITIONS[self.state]:
            raise QPStateError(f"illegal transition {self.state} -> {new_state}")
        self.state = new_state
        if new_state is QPState.ERR:
            self.flush()
        elif new_state is QPState.RESET:
            for wr in self._inflight_sends.values():
                wr.flushed = True
            self._inflight_sends.clear()
            self._outstanding_send = 0
            self._recv_queue.clear()

    def connect(self, remote: "QueuePair") -> None:
        """Bring both QPs of a connection to RTS (RESET->INIT->RTR->RTS).

        Mirrors the usual rdma-cm handshake; both ends must be RESET.
        """
        if self.qp_type is not remote.qp_type:
            raise QPStateError(
                f"transport mismatch: {self.qp_type} vs {remote.qp_type}"
            )
        for qp in (self, remote):
            if qp.state is not QPState.RESET:
                raise QPStateError(f"QP {qp.qp_num} not in RESET (is {qp.state})")
        for qp in (self, remote):
            qp.modify(QPState.INIT)
            qp.modify(QPState.RTR)
            qp.modify(QPState.RTS)
        self.remote_qp = remote
        remote.remote_qp = self

    # ------------------------------------------------------------------
    # Posting
    # ------------------------------------------------------------------
    @property
    def outstanding_send(self) -> int:
        """Send WQEs posted but not yet completed (len_sq)."""
        return self._outstanding_send

    @property
    def send_queue_free(self) -> int:
        return self.cap.max_send_wr - self._outstanding_send

    def ready(self) -> None:
        """Bring an *unconnected* (UD) QP to RTS.

        Connected transports go through :meth:`connect`; datagram QPs
        have no peer and just walk the state machine.
        """
        if self.qp_type is not QPType.UD:
            raise QPStateError(f"{self.qp_type} QPs must connect(), not ready()")
        self.modify(QPState.INIT)
        self.modify(QPState.RTR)
        self.modify(QPState.RTS)

    def _validate_send(self, wr: SendWR) -> None:
        """All post-time checks shared by single and batched posts."""
        if self._destroyed:
            raise ResourceError(f"QP {self.qp_num} destroyed")
        if self.state is not QPState.RTS:
            raise QPStateError(f"QP {self.qp_num} not RTS (is {self.state})")
        if wr.lkey is not None:
            mr = self.context.mr_by_lkey(wr.lkey)
            if not mr.contains(wr.local_addr, wr.length):
                raise ResourceError(
                    f"QP {self.qp_num}: SGE [{wr.local_addr:#x}, "
                    f"+{wr.length}) outside lkey={wr.lkey} MR "
                    f"[{mr.addr:#x}, {mr.end:#x})"
                )
        if self.qp_type is QPType.UD:
            if wr.opcode is not Opcode.SEND:
                raise QPStateError("UD supports SEND/RECV only")
            if wr.ah is None:
                raise QPStateError("UD sends require an address handle")
            if wr.ah.remote_qp.state is QPState.RESET:
                raise QPStateError("destination UD QP is not ready")
            return
        if self.remote_qp is None:
            raise QPStateError(f"QP {self.qp_num} is not connected")
        if wr.opcode is Opcode.RDMA_READ and not self.qp_type.supports_rdma_read:
            raise QPStateError(f"{self.qp_type} does not support RDMA READ")
        if wr.opcode.is_atomic and not self.qp_type.supports_atomics:
            raise QPStateError(f"{self.qp_type} does not support atomics")
        if wr.opcode.needs_remote_addr and (wr.remote_addr is None or wr.rkey is None):
            raise QPStateError(f"{wr.opcode} requires remote_addr and rkey")
        if wr.inline:
            if not wr.opcode.carries_request_payload:
                raise QPStateError(
                    f"{wr.opcode} cannot be posted inline (no request payload)"
                )
            if wr.length > self.cap.max_inline_data:
                raise QPStateError(
                    f"inline length {wr.length} exceeds max_inline_data "
                    f"{self.cap.max_inline_data}"
                )

    def post_send(self, wr: SendWR) -> None:
        """``ibv_post_send``: validate and hand the WQE to the engine."""
        self._validate_send(wr)
        if self._outstanding_send >= self.cap.max_send_wr:
            raise QueueFullError(
                f"QP {self.qp_num} send queue full ({self.cap.max_send_wr})"
            )
        wr.queue_ahead = self._outstanding_send
        self._outstanding_send += 1
        self._inflight_sends[id(wr)] = wr
        self._account(wr)
        self.context.engine.post_send(self, wr)

    def _account(self, wr: SendWR) -> None:
        self.total_posted += 1
        self.bytes_posted += wr.length
        self.opcode_counts[wr.opcode] = self.opcode_counts.get(wr.opcode, 0) + 1
        self.size_counts[wr.length] = self.size_counts.get(wr.length, 0) + 1

    def _validate_send_batch(self, wrs: list[SendWR]) -> None:
        """:meth:`_validate_send` over a whole batch, with the per-QP
        checks hoisted out of the loop and the per-opcode transport
        checks memoized.

        Raises the same exception the scalar per-WQE sweep would raise,
        at the same WQE: the hoisted checks (destroyed, state) do not
        depend on the WQE at all, and the loop preserves the scalar
        check order for everything that does.
        """
        if self._destroyed:
            raise ResourceError(f"QP {self.qp_num} destroyed")
        if self.state is not QPState.RTS:
            raise QPStateError(f"QP {self.qp_num} not RTS (is {self.state})")
        if self.qp_type is QPType.UD:
            for wr in wrs:
                self._validate_send(wr)
            return
        disconnected = self.remote_qp is None
        qp_type = self.qp_type
        max_inline = self.cap.max_inline_data
        checked_ops: dict[Opcode, bool] = {}
        for wr in wrs:
            if wr.lkey is not None:
                mr = self.context.mr_by_lkey(wr.lkey)
                if not mr.contains(wr.local_addr, wr.length):
                    raise ResourceError(
                        f"QP {self.qp_num}: SGE [{wr.local_addr:#x}, "
                        f"+{wr.length}) outside lkey={wr.lkey} MR "
                        f"[{mr.addr:#x}, {mr.end:#x})"
                    )
            if disconnected:
                raise QPStateError(f"QP {self.qp_num} is not connected")
            op = wr.opcode
            needs_remote = checked_ops.get(op)
            if needs_remote is None:
                if op is Opcode.RDMA_READ and not qp_type.supports_rdma_read:
                    raise QPStateError(
                        f"{qp_type} does not support RDMA READ"
                    )
                if op.is_atomic and not qp_type.supports_atomics:
                    raise QPStateError(f"{qp_type} does not support atomics")
                needs_remote = checked_ops[op] = op.needs_remote_addr
            if needs_remote and (wr.remote_addr is None or wr.rkey is None):
                raise QPStateError(f"{op} requires remote_addr and rkey")
            if wr.inline:
                if not op.carries_request_payload:
                    raise QPStateError(
                        f"{op} cannot be posted inline (no request payload)"
                    )
                if wr.length > max_inline:
                    raise QPStateError(
                        f"inline length {wr.length} exceeds max_inline_data "
                        f"{max_inline}"
                    )

    def post_send_batch(self, wrs: list[SendWR]) -> None:
        """Post a WQE list with one doorbell (``ibv_post_send``'s
        linked-list form — Kalia et al.'s doorbell batching).

        Validation happens per WQE *before* anything is posted, so a
        bad entry rejects the whole batch atomically.

        Barrier contract: an RNIC engine may plan an eligible cohort
        whole at post time (:mod:`repro.rnic.batch`), committing its
        future station occupancy.  The outcome is byte-identical to the
        per-message pipeline for the barrier shape — post a cohort, run
        the simulator until it drains, repeat.  A post made before the
        cohort drains queues behind the committed horizons and may
        complete later than on the per-message pipeline (a known
        divergence, pinned as an expected failure in
        ``tests/rnic/test_batch_equivalence.py``); ``REPRO_RNIC_BATCH=0``
        keeps the per-message timing.
        """
        if not wrs:
            raise ValueError("empty batch")
        if self.send_queue_free < len(wrs):
            raise QueueFullError(
                f"QP {self.qp_num}: batch of {len(wrs)} exceeds free "
                f"send-queue space ({self.send_queue_free})"
            )
        # Validate every WQE before posting any: a bad entry (QP state,
        # lkey, inline rules) rejects the whole batch atomically, on
        # the engine-batched and fallback paths alike.
        self._validate_send_batch(wrs)
        engine_batch = getattr(self.context.engine, "post_send_batch", None)
        if engine_batch is not None:
            # the engine amortizes the doorbell; it calls back into
            # complete_send per WQE as usual.  Accounting is the batched
            # unroll of _account: same totals, same per-opcode/per-size
            # histograms, one pass.
            out = self._outstanding_send
            inflight = self._inflight_sends
            opcode_counts = self.opcode_counts
            size_counts = self.size_counts
            bytes_here = 0
            for wr in wrs:
                wr.queue_ahead = out
                out += 1
                inflight[id(wr)] = wr
                length = wr.length
                op = wr.opcode
                bytes_here += length
                opcode_counts[op] = opcode_counts.get(op, 0) + 1
                size_counts[length] = size_counts.get(length, 0) + 1
            self._outstanding_send = out
            self.total_posted += len(wrs)
            self.bytes_posted += bytes_here
            engine_batch(self, wrs)
            return
        for wr in wrs:
            self.post_send(wr)

    def account_closed_loop(self, sizes: dict, completed: int,
                            inflight: list[SendWR]) -> None:
        """The bookkeeping of a planned closed loop of signaled one-sided
        posts (:mod:`repro.rnic.closed_loop`): ``sizes`` maps each
        posted length to its count (in first-post order), ``completed``
        WQEs retired with ``SUCCESS`` CQEs the poster consumed, and
        ``inflight`` (in post order) are still outstanding.  Leaves
        exactly what the posts, completions and polls would have."""
        posted = sum(sizes.values())
        opcode = inflight[0].opcode
        self.total_posted += posted
        self.total_completed += completed
        self.bytes_posted += sum(size * count for size, count in sizes.items())
        self.opcode_counts[opcode] = self.opcode_counts.get(opcode, 0) + posted
        size_counts = self.size_counts
        for size, count in sizes.items():
            size_counts[size] = size_counts.get(size, 0) + count
        for wr in inflight:
            self._inflight_sends[id(wr)] = wr
        self._outstanding_send += len(inflight)
        self.send_cq.total_completions += completed

    def post_recv(self, wr: RecvWR) -> None:
        """``ibv_post_recv``: queue a receive buffer."""
        if self._destroyed:
            raise ResourceError(f"QP {self.qp_num} destroyed")
        if self.state in (QPState.RESET, QPState.ERR):
            raise QPStateError(f"cannot post recv in {self.state}")
        if len(self._recv_queue) >= self.cap.max_recv_wr:
            raise QueueFullError(f"QP {self.qp_num} recv queue full")
        self._recv_queue.append(wr)

    def take_recv(self) -> RecvWR:
        """Engine-side: consume the head receive buffer for an inbound
        SEND."""
        if not self._recv_queue:
            raise QueueFullError(f"QP {self.qp_num} receive queue empty (RNR)")
        return self._recv_queue.pop(0)

    # ------------------------------------------------------------------
    # Completion (engine-side)
    # ------------------------------------------------------------------
    def complete_send(self, wr: SendWR, status: WCStatus, now: float) -> None:
        """Engine-side: retire a send WQE and (if signaled) emit a CQE.

        A failing completion moves the QP to ERR and *flushes* the other
        outstanding WQEs with ``WR_FLUSH_ERR`` — the error CQE for the
        failing WQE is delivered first, then the flush completions, the
        order applications expect from a real provider.
        """
        if wr.flushed:
            return  # already force-completed by an error-state flush
        if self._outstanding_send <= 0:  # pragma: no cover - defensive
            raise QPStateError(f"QP {self.qp_num} has no outstanding sends")
        self._outstanding_send -= 1
        self.total_completed += 1
        wr.complete_time = now
        self._inflight_sends.pop(id(wr), None)
        if wr.signaled:
            self.send_cq.push(
                make_completion(
                    wr_id=wr.wr_id,
                    status=status,
                    opcode=wr.opcode,
                    byte_len=wr.length,
                    qp_num=self.qp_num,
                    post_time=wr.post_time,
                    complete_time=now,
                    queue_ahead=wr.queue_ahead,
                )
            )
        if status is not WCStatus.SUCCESS and self.state is not QPState.ERR:
            self.state = QPState.ERR
            self.flush(now)

    def flush(self, now: Optional[float] = None) -> int:
        """Complete every outstanding WQE with ``WR_FLUSH_ERR``.

        Called when the QP enters the ERROR state; safe to call again
        (flushing an empty QP is a no-op).  Returns the number of WQEs
        flushed; the engine's ``flushed_wqes`` counter (when the engine
        exposes :class:`~repro.rnic.counters.NICCounters`) records the
        same total so telemetry sees the failure.
        """
        if now is None:
            now = self.context.engine.now
        flushed = 0
        inflight = self._inflight_sends
        while inflight:
            wr = inflight.pop(next(iter(inflight)))
            wr.flushed = True
            wr.complete_time = now
            self._outstanding_send -= 1
            self.total_completed += 1
            flushed += 1
            if wr.signaled:
                self.send_cq.push(
                    make_completion(
                        wr_id=wr.wr_id,
                        status=WCStatus.WR_FLUSH_ERR,
                        opcode=wr.opcode,
                        byte_len=wr.length,
                        qp_num=self.qp_num,
                        post_time=wr.post_time,
                        complete_time=now,
                        queue_ahead=wr.queue_ahead,
                    )
                )
        for recv in self._recv_queue:
            flushed += 1
            self.recv_cq.push(
                WorkCompletion(
                    wr_id=recv.wr_id,
                    status=WCStatus.WR_FLUSH_ERR,
                    opcode=Opcode.RECV,
                    byte_len=0,
                    qp_num=self.qp_num,
                    post_time=now,
                    complete_time=now,
                )
            )
        self._recv_queue.clear()
        if flushed:
            counters = getattr(self.context.engine, "counters", None)
            if counters is not None:
                counters.flushed_wqes += flushed
        return flushed

    def deliver_recv(self, wr: RecvWR, byte_len: int, status: WCStatus, now: float) -> None:
        """Engine-side: complete an inbound SEND into a posted recv buffer."""
        self.recv_cq.push(
            WorkCompletion(
                wr_id=wr.wr_id,
                status=status,
                opcode=Opcode.RECV,
                byte_len=byte_len,
                qp_num=self.qp_num,
                post_time=now,
                complete_time=now,
            )
        )

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    @property
    def destroyed(self) -> bool:
        return self._destroyed

    def destroy(self) -> None:
        if self._destroyed:
            raise ResourceError(f"QP {self.qp_num} already destroyed")
        if self._outstanding_send:
            raise ResourceError(
                f"QP {self.qp_num} has {self._outstanding_send} WQEs in flight"
            )
        self._destroyed = True

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<QP {self.qp_num} {self.qp_type.value} {self.state.value} "
            f"outstanding={self._outstanding_send}>"
        )
