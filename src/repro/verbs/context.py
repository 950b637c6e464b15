"""Device contexts: the root verbs object.

A :class:`Context` corresponds to ``ibv_open_device`` — it owns the
resource namespaces (PD handles, MR keys, QP numbers, CQ handles) of one
RNIC and routes posted work to the backing engine.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

from repro.verbs.cq import CompletionQueue
from repro.verbs.engine import Engine, ImmediateEngine
from repro.verbs.enums import AccessFlags, QPType
from repro.verbs.errors import RemoteAccessError, ResourceError
from repro.verbs.mr import MemoryRegion
from repro.verbs.pd import ProtectionDomain
from repro.verbs.qp import QPCapabilities, QueuePair

if TYPE_CHECKING:  # pragma: no cover
    from repro.host.memory import HostMemory


class Context:
    """An opened RDMA device.

    ``engine`` supplies timing and transport; ``memory`` is the host
    DRAM this device DMAs into.  Key/handle/QPN assignment is made
    globally unique across contexts via class-level counters, matching
    how rkeys must be unique enough to exchange between hosts.
    """

    _rkey_counter = itertools.count(0x1000)
    _qpn_counter = itertools.count(0x100)

    def __init__(
        self,
        engine: Optional[Engine] = None,
        memory: Optional["HostMemory"] = None,
        name: str = "rnic0",
    ) -> None:
        self.name = name
        self.engine = engine if engine is not None else ImmediateEngine()
        if memory is None:
            # imported here to avoid a package-level cycle
            # (repro.host.node itself builds Contexts)
            from repro.host.memory import HostMemory
            memory = HostMemory()
        self.memory = memory
        self._pd_handles = itertools.count(1)
        self._cq_handles = itertools.count(1)
        self.pds: list[ProtectionDomain] = []
        self.cqs: list[CompletionQueue] = []
        self.qps: list[QueuePair] = []
        self._mr_by_rkey: dict[int, MemoryRegion] = {}

    # ------------------------------------------------------------------
    # Resource creation
    # ------------------------------------------------------------------
    def alloc_pd(self) -> ProtectionDomain:
        pd = ProtectionDomain(self, next(self._pd_handles))
        self.pds.append(pd)
        return pd

    def _release_pd(self, pd: ProtectionDomain) -> None:
        self.pds.remove(pd)

    def create_cq(self, capacity: int = 1024) -> CompletionQueue:
        cq = CompletionQueue(capacity, handle=next(self._cq_handles))
        self.cqs.append(cq)
        return cq

    def reg_mr(
        self,
        pd: ProtectionDomain,
        length: int,
        access: AccessFlags = AccessFlags.all_remote(),
        addr: Optional[int] = None,
        huge_pages: bool = True,
    ) -> MemoryRegion:
        """Register (allocating if ``addr`` is None) a memory region."""
        if pd.context is not self:
            raise ResourceError("PD belongs to a different context")
        if pd.destroyed:
            raise ResourceError("PD is destroyed")
        if length <= 0:
            raise ResourceError(f"MR length must be positive, got {length}")
        if addr is None:
            addr = (
                self.memory.alloc_huge(length)
                if huge_pages
                else self.memory.alloc(length)
            )
        key = next(Context._rkey_counter)
        mr = MemoryRegion(
            pd, addr, length, access, lkey=key, rkey=key, huge_pages=huge_pages
        )
        self._mr_by_rkey[mr.rkey] = mr
        return mr

    def create_qp(
        self,
        pd: ProtectionDomain,
        send_cq: CompletionQueue,
        recv_cq: Optional[CompletionQueue] = None,
        qp_type: QPType = QPType.RC,
        cap: Optional[QPCapabilities] = None,
        traffic_class: int = 0,
    ) -> QueuePair:
        if pd.context is not self:
            raise ResourceError("PD belongs to a different context")
        qp = QueuePair(
            pd,
            qp_num=next(Context._qpn_counter),
            qp_type=qp_type,
            send_cq=send_cq,
            recv_cq=recv_cq if recv_cq is not None else send_cq,
            cap=cap if cap is not None else QPCapabilities(),
            traffic_class=traffic_class,
        )
        self.qps.append(qp)
        return qp

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def mr_by_rkey(self, rkey: int) -> MemoryRegion:
        mr = self._mr_by_rkey.get(rkey)
        if mr is None or mr.destroyed:
            raise RemoteAccessError(f"unknown or deregistered rkey {rkey}")
        return mr

    def mr_by_lkey(self, lkey: int) -> MemoryRegion:
        """Resolve a local protection key (post-time SGE validation).

        lkeys share the rkey namespace (``reg_mr`` assigns them from
        one counter, as real providers commonly do), but a bad *local*
        key is a caller bug caught at post time, hence
        :class:`ResourceError` rather than the remote-fault type.
        """
        mr = self._mr_by_rkey.get(lkey)
        if mr is None or mr.destroyed:
            raise ResourceError(f"unknown or deregistered lkey {lkey}")
        return mr

    @property
    def live_mr_count(self) -> int:
        return sum(1 for mr in self._mr_by_rkey.values() if not mr.destroyed)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Context {self.name} pds={len(self.pds)} qps={len(self.qps)} "
            f"mrs={self.live_mr_count}>"
        )
