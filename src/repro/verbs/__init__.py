"""A verbs-like RDMA API (modelled on libibverbs / pyverbs).

This is the programming surface every Ragnar attack is written against,
mirroring the objects of Figure 1 in the paper: contexts, protection
domains (PD), memory regions (MR), queue pairs (QP), completion queues
(CQ), work requests (WQE) and completions (CQE).

The API is backed by an *engine* — either the trivial
:class:`~repro.verbs.engine.ImmediateEngine` used in unit tests, or the
full microarchitectural RNIC model in :mod:`repro.rnic`.
"""

from repro.verbs.enums import (
    AccessFlags,
    Opcode,
    QPState,
    QPType,
    WCStatus,
)
from repro.verbs.errors import (
    CQOverflowError,
    QPStateError,
    QueueFullError,
    RemoteAccessError,
    ResourceError,
    VerbsError,
)
from repro.verbs.wr import GRH_BYTES, AddressHandle, RecvWR, SendWR, WorkCompletion
from repro.verbs.mr import MemoryRegion
from repro.verbs.pd import ProtectionDomain
from repro.verbs.cq import CompletionQueue
from repro.verbs.qp import QPCapabilities, QueuePair
from repro.verbs.context import Context
from repro.verbs.engine import Engine, ImmediateEngine

__all__ = [
    "AccessFlags",
    "Opcode",
    "QPState",
    "QPType",
    "WCStatus",
    "VerbsError",
    "ResourceError",
    "RemoteAccessError",
    "QueueFullError",
    "QPStateError",
    "CQOverflowError",
    "SendWR",
    "AddressHandle",
    "GRH_BYTES",
    "RecvWR",
    "WorkCompletion",
    "MemoryRegion",
    "ProtectionDomain",
    "CompletionQueue",
    "QueuePair",
    "QPCapabilities",
    "Context",
    "Engine",
    "ImmediateEngine",
]
