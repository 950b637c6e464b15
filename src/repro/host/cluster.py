"""Cluster harness: hosts, network, and connection helpers.

This is the experiment entry point: every microbenchmark, covert
channel and side-channel attack builds a :class:`Cluster`, adds hosts
(server, victim client, attacker client — the three parties of Figure
2), connects QPs and drives traffic.
"""

from __future__ import annotations

from typing import Optional

from repro.fabric.network import Link, Network
from repro.host.node import Host
from repro.rnic.spec import RNICSpec
from repro.sim.kernel import Simulator
from repro.sim.units import MEBIBYTE, SECONDS
from repro.verbs.cq import CompletionQueue
from repro.verbs.enums import Opcode
from repro.verbs.mr import MemoryRegion
from repro.verbs.qp import QPCapabilities, QueuePair
from repro.verbs.wr import SendWR, WorkCompletion, make_read_wr


class RDMAConnection:
    """A client-side handle on one connected RC QP pair.

    Provides one-sided post helpers against the server's MRs plus a
    ``run_until_complete`` loop for sequential (process-free) clients.
    """

    def __init__(
        self,
        cluster: "Cluster",
        client: Host,
        server: Host,
        qp: QueuePair,
        server_qp: QueuePair,
        cq: CompletionQueue,
        local_mr: MemoryRegion,
    ) -> None:
        self.cluster = cluster
        self.client = client
        self.server = server
        self.qp = qp
        self.server_qp = server_qp
        self.cq = cq
        self.local_mr = local_mr
        self._wr_ids = 0

    def _next_wr_id(self) -> int:
        self._wr_ids += 1
        return self._wr_ids

    def claim_wr_ids(self, count: int) -> int:
        """Reserve ``count`` consecutive ``wr_id`` values; returns the
        first."""
        first = self._wr_ids + 1
        self._wr_ids += count
        return first

    def post_read(
        self,
        remote_mr: MemoryRegion,
        offset: int = 0,
        length: int = 64,
        signaled: bool = True,
        local_offset: int = 0,
    ) -> SendWR:
        """Post an RDMA Read of the server MR at the given offset."""
        wr = SendWR(
            opcode=Opcode.RDMA_READ,
            local_addr=self.local_mr.addr + local_offset,
            length=length,
            remote_addr=remote_mr.addr + offset,
            rkey=remote_mr.rkey,
            wr_id=self._next_wr_id(),
            signaled=signaled,
        )
        self.qp.post_send(wr)
        return wr

    def post_write(
        self,
        remote_mr: MemoryRegion,
        offset: int = 0,
        length: int = 64,
        signaled: bool = True,
        local_offset: int = 0,
    ) -> SendWR:
        """Post an RDMA Write into the server MR at the given offset."""
        wr = SendWR(
            opcode=Opcode.RDMA_WRITE,
            local_addr=self.local_mr.addr + local_offset,
            length=length,
            remote_addr=remote_mr.addr + offset,
            rkey=remote_mr.rkey,
            wr_id=self._next_wr_id(),
            signaled=signaled,
        )
        self.qp.post_send(wr)
        return wr

    def post_read_batch(
        self,
        remote_mr: MemoryRegion,
        offsets,
        length: int = 64,
        signaled: bool = True,
        local_offset: int = 0,
        signal_every: int = 1,
    ) -> list[SendWR]:
        """Post one RDMA Read per entry of ``offsets`` as a single
        doorbell-batched cohort (``ibv_post_send``'s linked-list form).

        This is the batched-ingress twin of :meth:`post_read`: the QP
        validates the whole list up front and hands it to the engine's
        ``post_send_batch``, where eligible cohorts take the planned
        descriptor fast path.  Returns the posted WQEs in order.

        Barrier contract: as with ``QueuePair.post_send_batch``, results
        match the scalar pipeline byte for byte only if the cohort
        drains before anything else is posted on the pair.

        ``signal_every=k`` requests a CQE on every k-th WQE plus the
        final one — the selective-signaling recipe message-rate
        benchmarks use (``ibv_send_wr.send_flags`` without
        ``IBV_SEND_SIGNALED``).  ``signaled=False`` suppresses CQEs
        entirely and ignores ``signal_every``.
        """
        if signal_every < 1:
            raise ValueError(
                f"signal_every must be positive, got {signal_every}")
        local_addr = self.local_mr.addr + local_offset
        rkey = remote_mr.rkey
        base = remote_mr.addr
        wr_id = self.claim_wr_ids(len(offsets))
        last = len(offsets) - 1
        wrs = [
            make_read_wr(
                local_addr, length, base + offset, rkey, wr_id + index,
                signaled=signaled and (
                    index % signal_every == 0 or index == last),
            )
            for index, offset in enumerate(offsets)
        ]
        self.qp.post_send_batch(wrs)
        return wrs

    def post_atomic(
        self,
        remote_mr: MemoryRegion,
        offset: int = 0,
        fetch_add: Optional[int] = None,
        compare: Optional[int] = None,
        swap: Optional[int] = None,
    ) -> SendWR:
        """Post a FETCH_ADD (``fetch_add``) or CMP_SWP (``compare``/``swap``)."""
        if fetch_add is not None:
            wr = SendWR(
                opcode=Opcode.ATOMIC_FETCH_ADD,
                local_addr=self.local_mr.addr,
                remote_addr=remote_mr.addr + offset,
                rkey=remote_mr.rkey,
                compare_add=fetch_add,
                wr_id=self._next_wr_id(),
            )
        elif compare is not None and swap is not None:
            wr = SendWR(
                opcode=Opcode.ATOMIC_CMP_SWP,
                local_addr=self.local_mr.addr,
                remote_addr=remote_mr.addr + offset,
                rkey=remote_mr.rkey,
                compare_add=compare,
                swap=swap,
                wr_id=self._next_wr_id(),
            )
        else:
            raise ValueError("specify fetch_add, or compare and swap")
        self.qp.post_send(wr)
        return wr

    def await_completions(
        self, count: int = 1, timeout_ns: float = 10 * SECONDS
    ) -> list[WorkCompletion]:
        """Run the simulation until ``count`` CQEs arrive on this CQ."""
        sim = self.cluster.sim
        deadline = sim.now + timeout_ns
        step = sim.step
        cq = self.cq
        out: list[WorkCompletion] = cq.poll(count)
        while len(out) < count:
            if sim.now >= deadline or not step():
                raise TimeoutError(
                    f"waited for {count} completions, got {len(out)} "
                    f"by t={sim.now:.0f}ns"
                )
            # poll only when the step actually delivered something —
            # most events are pipeline stages, not completions
            if len(cq):
                out.extend(cq.poll(count - len(out)))
        return out

    def read_blocking(
        self, remote_mr: MemoryRegion, offset: int = 0, length: int = 64
    ) -> WorkCompletion:
        """Post one read and run the simulation to its completion."""
        self.post_read(remote_mr, offset, length)
        return self.await_completions(1)[0]


class Cluster:
    """A simulated RDMA testbed on one switch."""

    def __init__(self, seed: int = 0) -> None:
        self.sim = Simulator(seed=seed)
        self.network = Network()
        self.hosts: dict[str, Host] = {}

    def add_host(
        self,
        name: str,
        spec: Optional[RNICSpec] = None,
        memory_size: int = 32 * MEBIBYTE,
        link: Optional[Link] = None,
    ) -> Host:
        if name in self.hosts:
            raise ValueError(f"host {name!r} already exists")
        host = Host(
            self.sim, name, spec=spec, network=self.network,
            memory_size=memory_size, link=link,
        )
        self.hosts[name] = host
        return host

    def connect(
        self,
        client: Host,
        server: Host,
        max_send_wr: int = 128,
        traffic_class: int = 0,
        local_buffer: int = MEBIBYTE,
        cq_capacity: int = 4096,
    ) -> RDMAConnection:
        """Create and connect an RC QP pair; returns the client handle."""
        client_cq = client.context.create_cq(cq_capacity)
        server_cq = server.context.create_cq(cq_capacity)
        cap = QPCapabilities(max_send_wr=max_send_wr)
        client_qp = client.context.create_qp(
            client.pd, client_cq, cap=cap, traffic_class=traffic_class
        )
        server_qp = server.context.create_qp(
            server.pd, server_cq, cap=cap, traffic_class=traffic_class
        )
        client_qp.connect(server_qp)
        local_mr = client.reg_mr(local_buffer)
        return RDMAConnection(
            self, client, server, client_qp, server_qp, client_cq, local_mr
        )

    def run_for(self, duration_ns: float) -> None:
        """Advance the simulation by ``duration_ns``."""
        self.sim.run(until=self.sim.now + duration_ns)
