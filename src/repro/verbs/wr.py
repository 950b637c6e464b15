"""Work requests (WQE), work completions (CQE) and address handles."""

from __future__ import annotations

import dataclasses
import itertools
from typing import TYPE_CHECKING, Optional

from repro.verbs.enums import Opcode, WCStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.qp import QueuePair

_wqe_sequencer = itertools.count(1)

#: Size of the Global Routing Header prepended to received UD payloads.
GRH_BYTES = 40


@dataclasses.dataclass(frozen=True)
class AddressHandle:
    """``ibv_ah``: a prebuilt route to a remote UD endpoint.

    UD QPs are unconnected; every send names its destination through an
    address handle plus the remote QP number.
    """

    remote_qp: "QueuePair"

    def __post_init__(self) -> None:
        from repro.verbs.enums import QPType

        if self.remote_qp.qp_type is not QPType.UD:
            raise ValueError("address handles target UD QPs only")


@dataclasses.dataclass
class SendWR:
    """A send-queue work request.

    ``local_addr``/``length`` describe the local buffer (the SGE);
    ``remote_addr``/``rkey`` target the remote MR for one-sided verbs.
    Atomics additionally carry ``compare_add`` / ``swap`` operands and
    always transfer 8 bytes.
    """

    opcode: Opcode
    local_addr: int = 0
    length: int = 0
    remote_addr: Optional[int] = None
    rkey: Optional[int] = None
    wr_id: int = 0
    signaled: bool = True
    #: IBV_SEND_INLINE: the payload is copied into the WQE by the CPU,
    #: so the NIC skips the payload-gather DMA (a latency fast path for
    #: small writes/sends).  Only valid up to the QP's max_inline_data.
    inline: bool = False
    #: UD only: the destination route (RC/UC ignore this).
    ah: Optional["AddressHandle"] = None
    compare_add: int = 0
    swap: int = 0
    #: Local protection key of the SGE's MR.  Optional (the simulated
    #: host addresses are already unambiguous), but when provided it is
    #: validated at post time: an unknown/deregistered lkey or a buffer
    #: outside the MR rejects the post — and rejects the *whole* batch
    #: in ``post_send_batch`` before anything is enqueued.
    lkey: Optional[int] = None
    #: Sequence number assigned at post time (used for FIFO assertions).
    seq: int = dataclasses.field(default=0, init=False)
    #: Simulated nanosecond timestamps filled in by the engine.
    post_time: float = dataclasses.field(default=0.0, init=False)
    complete_time: float = dataclasses.field(default=0.0, init=False)
    #: Send-queue occupancy (entries ahead of this WQE) at post time;
    #: the denominator of the paper's ULI metric.
    queue_ahead: int = dataclasses.field(default=0, init=False)
    #: Set when the QP force-completed this WQE with ``WR_FLUSH_ERR``
    #: (error-state flush).  In-flight pipeline stages check it so a
    #: flushed WQE is never executed or completed a second time.
    flushed: bool = dataclasses.field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"length must be non-negative, got {self.length}")
        if self.opcode.is_atomic:
            self.length = 8
        if self.opcode is Opcode.RECV:
            raise ValueError("RECV is not a send opcode; use RecvWR")
        self.seq = next(_wqe_sequencer)

    @property
    def wire_request_bytes(self) -> int:
        """Payload bytes carried by the request packet."""
        return self.length if self.opcode.carries_request_payload else 0

    @property
    def wire_response_bytes(self) -> int:
        """Payload bytes carried by the response packet."""
        return self.length if self.opcode.response_carries_payload else 0


def make_read_wr(
    local_addr: int,
    length: int,
    remote_addr: int,
    rkey: int,
    wr_id: int,
    signaled: bool = True,
) -> "SendWR":
    """Construct an RDMA-Read :class:`SendWR` without the dataclass
    ``__init__``.

    The batched ingress posts thousands of READ WQEs per cohort;
    the generated dataclass constructor (16 fields plus
    ``__post_init__``) is about a microsecond of pure Python per WQE —
    a sixth of the whole fast-path budget.  This builder fills the same
    fields directly (READ needs no inline/atomic/AH handling) and keeps
    the one side effect that matters: consuming ``_wqe_sequencer``.
    """
    wr = SendWR.__new__(SendWR)
    # replacing the instance __dict__ with a literal beats dict.update
    # with 16 keyword pairs (one C-level dict display vs building and
    # merging a kwargs dict)
    wr.__dict__ = {
        "opcode": Opcode.RDMA_READ, "local_addr": local_addr,
        "length": length, "remote_addr": remote_addr, "rkey": rkey,
        "wr_id": wr_id, "signaled": signaled, "inline": False, "ah": None,
        "compare_add": 0, "swap": 0, "lkey": None,
        "seq": next(_wqe_sequencer), "post_time": 0.0, "complete_time": 0.0,
        "queue_ahead": 0, "flushed": False,
    }
    return wr


def skip_wqe_seqs(count: int) -> None:
    """Consume ``count`` WQE sequence numbers without building WQEs: a
    planner that retires WQEs it never materializes keeps the ``seq`` of
    every later WQE where the per-message path would put it."""
    next(itertools.islice(_wqe_sequencer, count, count), None)


def make_completion(
    wr_id: int,
    status: "WCStatus",
    opcode: Opcode,
    byte_len: int,
    qp_num: int,
    post_time: float,
    complete_time: float,
    queue_ahead: int = 0,
) -> "WorkCompletion":
    """Construct a :class:`WorkCompletion` without the frozen-dataclass
    ``__init__``.

    A frozen dataclass routes every field through
    ``object.__setattr__``; on the completion hot path (one CQE per
    signaled WQE) that costs about half the constructor.  Bypassing
    ``__init__`` with ``__new__`` + a ``__dict__`` update builds an
    identical instance (same fields, same equality/hash semantics) at
    roughly twice the speed.
    """
    wc = WorkCompletion.__new__(WorkCompletion)
    # the frozen dataclass blocks ``wc.__dict__ = ...`` (it routes
    # through the frozen __setattr__); mutating the dict does not
    wc.__dict__.update({
        "wr_id": wr_id, "status": status, "opcode": opcode,
        "byte_len": byte_len, "qp_num": qp_num, "post_time": post_time,
        "complete_time": complete_time, "queue_ahead": queue_ahead,
    })
    return wc


@dataclasses.dataclass
class RecvWR:
    """A receive-queue work request (buffer for inbound SEND)."""

    local_addr: int = 0
    length: int = 0
    wr_id: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"length must be non-negative, got {self.length}")


@dataclasses.dataclass(frozen=True)
class WorkCompletion:
    """A completion-queue entry (CQE)."""

    wr_id: int
    status: WCStatus
    opcode: Opcode
    byte_len: int
    qp_num: int
    post_time: float
    complete_time: float
    queue_ahead: int = 0

    @property
    def ok(self) -> bool:
        return self.status is WCStatus.SUCCESS

    @property
    def latency(self) -> float:
        """Total post-to-completion latency in nanoseconds (Lat_total)."""
        return self.complete_time - self.post_time

    @property
    def unit_latency_increase(self) -> float:
        """The paper's ULI: ``Lat_total / (len_sq + 1)`` (Section IV-C)."""
        return self.latency / (self.queue_ahead + 1)
