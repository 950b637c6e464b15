"""Engines: the machinery behind the verbs API.

An :class:`Engine` consumes posted WQEs and retires them with
completions, performing the actual data movement between host memories.
Two implementations exist:

* :class:`ImmediateEngine` (here): zero/fixed-latency, synchronous —
  used for verbs API tests and for application-logic tests where timing
  is irrelevant.
* :class:`repro.rnic.rnic.RNIC`: the full microarchitectural model with
  PCIe, arbiters, processing units, translation and wire stages.

Both share :func:`execute_data_movement`, so RDMA semantics (bounds and
permission checks, byte movement, atomics) are identical regardless of
the timing model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs import runtime as _obs
from repro.verbs.enums import (
    REQUIRED_REMOTE_ACCESS,
    AccessFlags,
    Opcode,
    QPType,
    WCStatus,
)
from repro.verbs.errors import QueueFullError, RemoteAccessError
from repro.verbs.wr import GRH_BYTES, SendWR

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.qp import QueuePair


def resolve_remote_qp(qp: "QueuePair", wr: SendWR) -> "QueuePair":
    """The destination QP of a WQE: the connection peer for RC/UC, the
    address handle's target for UD."""
    if wr.ah is not None:
        return wr.ah.remote_qp
    if qp.remote_qp is None:
        raise RuntimeError(f"QP {qp.qp_num} has no destination for {wr.opcode}")
    return qp.remote_qp


def precheck_one_sided(qp: "QueuePair", wr: SendWR) -> WCStatus:
    """The status :func:`execute_data_movement` *would* return for a
    one-sided WQE, computed without side effects.

    Reference twin of ``repro.rnic.batch.RemoteProof``, the planners'
    shared proof (which memoizes the MR lookup and access-flag tests
    across a cohort or a probe loop instead of re-deriving them per
    WQE); the batch equivalence suite asserts the two agree.  Only
    the remote MR validation (bounds + access flags) is modelled here —
    local-buffer faults raise out of the data stage on both paths and
    are prechecked separately.
    """
    remote_qp = resolve_remote_qp(qp, wr)
    required = REQUIRED_REMOTE_ACCESS.get(wr.opcode, AccessFlags.NONE)
    try:
        mr = remote_qp.context.mr_by_rkey(wr.rkey)
        mr.check_remote(wr.remote_addr, wr.length, required)
    except RemoteAccessError:
        return WCStatus.REM_ACCESS_ERR
    return WCStatus.SUCCESS


def move_one_sided(local_mem, remote_mem, wr: SendWR) -> None:
    """Byte movement of a *validated* one-sided WQE.

    The semantic core shared by :func:`execute_data_movement` (which
    validates first) and the batched descriptor fast path (which proves
    a whole cohort's bounds and permissions up front, then calls this
    per descriptor with no per-message re-validation).  Payload moves
    use the memories' prechecked accessors; the 8-byte atomics keep the
    checked u64 helpers (they are off the hot path and share the
    little-endian packing in one place).
    """
    opcode = wr.opcode
    if opcode is Opcode.RDMA_READ:
        local_mem.write_prechecked(
            wr.local_addr, remote_mem.read_prechecked(wr.remote_addr, wr.length)
        )
    elif opcode is Opcode.RDMA_WRITE:
        remote_mem.write_prechecked(
            wr.remote_addr, local_mem.read_prechecked(wr.local_addr, wr.length)
        )
    elif opcode is Opcode.ATOMIC_FETCH_ADD:
        old = remote_mem.read_u64(wr.remote_addr)
        remote_mem.write_u64(wr.remote_addr, old + wr.compare_add)
        local_mem.write_u64(wr.local_addr, old)
    elif opcode is Opcode.ATOMIC_CMP_SWP:
        old = remote_mem.read_u64(wr.remote_addr)
        if old == wr.compare_add:
            remote_mem.write_u64(wr.remote_addr, wr.swap)
        local_mem.write_u64(wr.local_addr, old)
    else:  # pragma: no cover - callers gate on is_one_sided
        raise ValueError(f"{opcode} is not a one-sided opcode")


def execute_data_movement(qp: "QueuePair", wr: SendWR) -> WCStatus:
    """Perform the semantic effect of a one-sided WQE.

    Validates the remote MR (bounds + access flags) against the *remote*
    context's rkey table, then moves bytes between the two hosts'
    memories.  Returns the completion status instead of raising, the way
    a real RNIC reports remote access faults through CQEs.
    """
    remote_qp = resolve_remote_qp(qp, wr)
    remote_ctx = remote_qp.context
    local_mem = qp.context.memory
    remote_mem = remote_ctx.memory
    opcode = wr.opcode

    if opcode is Opcode.SEND:
        # An empty receive queue is the RNR condition: the
        # responder NAKs with "receiver not ready" and the requester
        # retries on its rnr_retry budget (the RNIC engine drives that
        # loop; this synchronous layer reports the exhausted outcome).
        # Anything else (destroyed resources, state errors) is a caller
        # bug and must propagate.
        try:
            recv_wr = remote_qp.take_recv()
        except QueueFullError:
            return WCStatus.RNR_RETRY_EXC_ERR
        # UD receives carry a 40 B Global Routing Header before the
        # payload; the posted buffer must cover both
        grh = GRH_BYTES if remote_qp.qp_type is QPType.UD else 0
        if recv_wr.length < wr.length + grh:
            return WCStatus.LOC_LEN_ERR
        data = local_mem.read(wr.local_addr, wr.length)
        if grh:
            remote_mem.fill(recv_wr.local_addr, grh, 0)
        remote_mem.write(recv_wr.local_addr + grh, data)
        remote_qp.deliver_recv(recv_wr, wr.length + grh, WCStatus.SUCCESS,
                               wr.post_time)
        return WCStatus.SUCCESS

    if not opcode.is_one_sided:  # pragma: no cover - defensive
        return WCStatus.REM_INV_REQ_ERR
    required = REQUIRED_REMOTE_ACCESS.get(opcode, AccessFlags.NONE)
    try:
        mr = remote_ctx.mr_by_rkey(wr.rkey)
        mr.check_remote(wr.remote_addr, wr.length, required)
    except RemoteAccessError:
        return WCStatus.REM_ACCESS_ERR

    # a local buffer outside host memory raises (caller bug, not a
    # remote fault) — the same IndexError the checked read/write of the
    # pre-mover implementation surfaced from inside the movement
    local_mem._check(wr.local_addr, wr.length)
    move_one_sided(local_mem, remote_mem, wr)
    return WCStatus.SUCCESS


class Engine:
    """Interface every verbs backend implements."""

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        raise NotImplementedError

    def post_send(self, qp: "QueuePair", wr: SendWR) -> None:
        raise NotImplementedError


class ImmediateEngine(Engine):
    """Synchronous engine: every WQE completes the instant it is posted
    (plus an optional fixed ``latency``), advancing an internal clock.

    Useful for testing verbs semantics and application logic without a
    discrete-event simulation.
    """

    def __init__(self, latency: float = 0.0) -> None:
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.latency = latency
        self._clock = 0.0
        self._obs = _obs.engine_tracer(self, "verbs.immediate")

    @property
    def now(self) -> float:
        return self._clock

    def post_send(self, qp: "QueuePair", wr: SendWR) -> None:
        wr.post_time = self._clock
        status = execute_data_movement(qp, wr)
        self._clock += self.latency
        obs = self._obs
        if obs is not None:
            obs.span(wr.opcode.name.lower(), wr.post_time,
                     self._clock - wr.post_time, category="verbs",
                     length=wr.length, status=status.name)
        qp.complete_send(wr, status, self._clock)
