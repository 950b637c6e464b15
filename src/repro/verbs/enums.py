"""Enumerations mirroring libibverbs constants."""

from __future__ import annotations

import enum


class Opcode(enum.Enum):
    """RDMA work-request opcodes (subset relevant to Ragnar).

    The classification flags (``is_atomic``, ``is_one_sided``, …) are
    plain member attributes, precomputed right after the class body:
    the RNIC pipeline consults them several times per message, and a
    descriptor call plus tuple scan per check showed up in end-to-end
    profiles.
    """

    RDMA_READ = "RDMA_READ"
    RDMA_WRITE = "RDMA_WRITE"
    SEND = "SEND"
    RECV = "RECV"
    ATOMIC_FETCH_ADD = "ATOMIC_FETCH_ADD"
    ATOMIC_CMP_SWP = "ATOMIC_CMP_SWP"

    #: Identity hashing in C.  ``Enum.__hash__`` is a Python-level
    #: ``hash(self._name_)``, salted per process anyway, and the batched
    #: verbs path hashes members thousands of times per cohort (dict
    #: keys, per-opcode tallies).  It must sit in the class body: dicts
    #: keyed by members are built against the hash in force.
    __hash__ = object.__hash__

    is_atomic: bool
    #: One-sided verbs bypass the remote CPU entirely.
    is_one_sided: bool
    needs_remote_addr: bool
    #: True if the request packet carries the message payload.
    carries_request_payload: bool
    #: True if the response packet carries the message payload.
    response_carries_payload: bool


for _op in Opcode:
    _op.is_atomic = _op in (Opcode.ATOMIC_FETCH_ADD, Opcode.ATOMIC_CMP_SWP)
    _op.is_one_sided = _op in (
        Opcode.RDMA_READ,
        Opcode.RDMA_WRITE,
        Opcode.ATOMIC_FETCH_ADD,
        Opcode.ATOMIC_CMP_SWP,
    )
    _op.needs_remote_addr = _op.is_one_sided
    _op.carries_request_payload = _op in (Opcode.RDMA_WRITE, Opcode.SEND)
    _op.response_carries_payload = _op is Opcode.RDMA_READ
del _op


class QPType(enum.Enum):
    """Queue-pair transport types."""

    RC = "RC"  # reliable connection (the paper's attacks use RC)
    UC = "UC"  # unreliable connection
    UD = "UD"  # unreliable datagram

    __hash__ = object.__hash__  # identity, in C (see Opcode)

    supports_rdma_read: bool
    supports_atomics: bool
    #: Reliable transports generate the ACK reverse flow (Figure 3).
    acks_requests: bool


for _qt in QPType:
    _qt.supports_rdma_read = _qt is QPType.RC
    _qt.supports_atomics = _qt is QPType.RC
    _qt.acks_requests = _qt is QPType.RC
del _qt


class QPState(enum.Enum):
    """The verbs QP state machine (simplified: no SQD)."""

    RESET = "RESET"
    INIT = "INIT"
    RTR = "RTR"  # ready to receive
    RTS = "RTS"  # ready to send
    ERR = "ERR"

    __hash__ = object.__hash__  # identity, in C (see Opcode)


#: Legal QP state transitions (from -> allowed targets).
QP_TRANSITIONS: dict[QPState, frozenset[QPState]] = {
    QPState.RESET: frozenset({QPState.INIT, QPState.ERR}),
    QPState.INIT: frozenset({QPState.RTR, QPState.RESET, QPState.ERR}),
    QPState.RTR: frozenset({QPState.RTS, QPState.RESET, QPState.ERR}),
    QPState.RTS: frozenset({QPState.RESET, QPState.ERR}),
    QPState.ERR: frozenset({QPState.RESET}),
}


class AccessFlags(enum.IntFlag):
    """MR access permissions (``IBV_ACCESS_*``)."""

    NONE = 0
    LOCAL_WRITE = 1
    REMOTE_WRITE = 2
    REMOTE_READ = 4
    REMOTE_ATOMIC = 8

    @classmethod
    def all_remote(cls) -> "AccessFlags":
        return cls.LOCAL_WRITE | cls.REMOTE_WRITE | cls.REMOTE_READ | cls.REMOTE_ATOMIC


#: Access flag an opcode requires on the *remote* MR.
REQUIRED_REMOTE_ACCESS: dict[Opcode, AccessFlags] = {
    Opcode.RDMA_READ: AccessFlags.REMOTE_READ,
    Opcode.RDMA_WRITE: AccessFlags.REMOTE_WRITE,
    Opcode.ATOMIC_FETCH_ADD: AccessFlags.REMOTE_ATOMIC,
    Opcode.ATOMIC_CMP_SWP: AccessFlags.REMOTE_ATOMIC,
}


class WCStatus(enum.Enum):
    """Work-completion status codes (``IBV_WC_*``).

    ``SUCCESS``
        The WQE's data movement executed and (for reliable transports)
        was acknowledged.
    ``LOC_LEN_ERR``
        A posted receive buffer was too small for the inbound message.
    ``LOC_PROT_ERR``
        A local buffer failed the PD/MR protection check.
    ``REM_ACCESS_ERR``
        The remote MR rejected the access (bounds or permission).
    ``REM_INV_REQ_ERR``
        The responder could not interpret the request (bad opcode for
        the QP type, malformed atomic, ...).
    ``WR_FLUSH_ERR``
        The WQE never executed: its QP entered the ERROR state while the
        request was still queued, and the provider *flushed* it — every
        outstanding send and receive completes with this status so the
        application can reclaim buffers.  Flush completions carry no
        data and say nothing about the fabric.
    ``RETRY_EXC_ERR``
        The requester's transport retry budget (``retry_cnt``) ran out:
        the packet (or its ACK) was lost ``retry_cnt + 1`` times in a
        row.  Indicates a fabric/peer failure, not an application error.
    ``RNR_RETRY_EXC_ERR``
        The responder kept answering *Receiver Not Ready* NAKs — its
        receive queue had no posted buffer — until the separate
        ``rnr_retry`` budget ran out.  Distinct from ``RETRY_EXC_ERR``:
        the fabric is healthy; the *application* on the remote side is
        not keeping its RQ stocked.
    """

    SUCCESS = "SUCCESS"
    LOC_LEN_ERR = "LOC_LEN_ERR"
    LOC_PROT_ERR = "LOC_PROT_ERR"
    REM_ACCESS_ERR = "REM_ACCESS_ERR"
    REM_INV_REQ_ERR = "REM_INV_REQ_ERR"
    WR_FLUSH_ERR = "WR_FLUSH_ERR"
    RETRY_EXC_ERR = "RETRY_EXC_ERR"
    RNR_RETRY_EXC_ERR = "RNR_RETRY_EXC_ERR"

    __hash__ = object.__hash__  # identity, in C (see Opcode)
