"""The composed RNIC: a verbs engine backed by the Figure 3 datapath.

Every posted WQE traverses a chain of discrete-event stages:

requester side                      responder side
--------------                      --------------
1. doorbell (MMIO)                  5. RxPU parse
2. PCIe DMA: WQE fetch + payload    6. Translation & Protection Unit
3. TxPU processing                  7. PCIe DMA to/from host memory
4. wire serialization  --------->   8. response via TxPU (Tx arbiter)
                                    9. wire serialization
10. RxPU + CQE DMA     <---------
11. completion (CQE into the CQ)

Stages 5–8 run on the *responder's* stations, which both clients of a
server share — that shared occupancy is the volatile channel.  Bulk
fluid flows (see :mod:`repro.rnic.bandwidth`) additionally load the
stations via background utilization.

Each WQE in flight is one :class:`_Flight`: its methods are the stages,
and each scheduled event is a bound method of it.  Nothing refers back
to a flight but the event heap, so a WQE is freed by reference counting
when its last event fires.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.fabric.network import Link, Network
from repro.obs import runtime as _obs
from repro.rnic.bandwidth import BandwidthAllocator, FluidFlow
from repro.rnic.batch import try_fast_path
from repro.rnic.counters import NICCounters
from repro.rnic.spec import RNICSpec, cx5
from repro.rnic.station import ServiceStation
from repro.rnic.translation import TranslationUnit
from repro.sim.kernel import Simulator
from repro.sim.units import SECONDS, bytes_to_bits
from repro.verbs.engine import Engine, execute_data_movement, resolve_remote_qp
from repro.verbs.enums import Opcode, WCStatus
from repro.verbs.errors import RemoteAccessError
from repro.verbs.wr import SendWR

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.qp import QueuePair

#: RoCE path MTU used to split large messages into packets.
MTU = 4096

#: The pipeline stages in order, each one scheduled event of a WQE
#: (:meth:`RNIC.launch` can start a WQE at any of them).  From
#: ``"response"`` on, a stage carries the data stage's status.
STAGES = ("fetch", "txpu", "wire_out", "responder_rx", "translate", "data",
          "response", "wire_back", "requester_rx", "complete")


class RNIC(Engine):
    """One simulated RNIC, usable as a verbs engine."""

    def __init__(
        self,
        sim: Simulator,
        spec: Optional[RNICSpec] = None,
        name: str = "rnic0",
        network: Optional[Network] = None,
        link: Optional["Link"] = None,
    ) -> None:
        self.sim = sim
        self.spec = spec if spec is not None else cx5()
        self.name = name
        self.network = network
        if network is not None:
            network.attach(self, link)
        rng = sim.random.stream(f"tpu.{name}")
        self.translation = TranslationUnit(self.spec, rng=rng)
        # stream handles are cached: (seed, name) fully determines each
        # sequence, so grabbing them eagerly changes nothing — but the
        # per-frame f-string + registry lookup was visible in profiles
        self._loss_rng = sim.random.stream(f"loss.{name}")
        self._ddio_rng = sim.random.stream(f"ddio.{name}")
        self.pcie = ServiceStation(f"{name}.pcie")
        self.txpu = ServiceStation(f"{name}.txpu")
        self.rxpu = ServiceStation(f"{name}.rxpu")
        self.wire_tx = ServiceStation(f"{name}.wire_tx")
        self.counters = NICCounters()
        self.allocator = BandwidthAllocator(self.spec)
        self._fluid_flows: dict[int, FluidFlow] = {}
        self._fluid_alloc: dict[int, float] = {}
        # observability: None unless an obs session with tracing was
        # installed before this RNIC was built (the experiments CLI
        # installs it before the experiment constructs its cluster);
        # every stage emission below is guarded by one `is not None`
        self._obs = _obs.tracer_for(sim)
        self._wqe_seq = 0
        self._geometry: dict[tuple, tuple] = {}
        _obs.register_rnic(self)

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def _transit_ns(self, dst: "RNIC") -> float:
        if self.network is None or dst is self:
            return 0.0
        return self.network.transit_ns(self, dst)

    def _frame_lost(self, src: "RNIC", dst: "RNIC") -> bool:
        """One frame's fate on the ``src -> dst`` path right now —
        static link loss plus any installed dynamic fault process."""
        if self.network is None or src is dst:
            return False
        return self.network.frame_lost(src, dst, self.sim.now, self._loss_rng)

    def _packets(self, payload: int) -> int:
        return max(1, (payload + MTU - 1) // MTU)

    def geometry(self, opcode: Opcode, length: int,
                 responder: "RNIC") -> tuple:
        """The per-message service geometry of one WQE toward
        ``responder``, memoized per ``(opcode, length, responder)``:

        ``(fetch_ns, req_nbytes, req_wire_ns, resp_nbytes, resp_wire_ns,
        data_ns, host_read)`` — the requester PCIe occupancy of the WQE
        fetch plus payload gather, the request's wire bytes (payload
        plus per-packet headers) and serialization time, the same for
        the response (built with the responder's header geometry), the
        responder's PCIe occupancy for the data, and whether the data
        stage waits out a host-read TLP round trip.  Service times are
        raw: stations apply their background inflation at admission.
        The scalar pipeline and both planners read this one table.
        """
        key = (opcode, length, responder)
        geometry = self._geometry.get(key)
        if geometry is None:
            spec = self.spec
            rspec = responder.spec
            req_payload = length if opcode.carries_request_payload else 0
            resp_payload = length if opcode.response_carries_payload else 0
            req_nbytes = (req_payload
                          + self._packets(req_payload) * spec.header_bytes)
            resp_nbytes = (resp_payload
                           + self._packets(resp_payload) * rspec.header_bytes)
            geometry = self._geometry[key] = (
                spec.pcie.dma_occupancy_ns(64 + req_payload),
                req_nbytes,
                bytes_to_bits(req_nbytes) * SECONDS / spec.line_rate_bps,
                resp_nbytes,
                bytes_to_bits(resp_nbytes) * SECONDS / rspec.line_rate_bps,
                rspec.pcie.dma_occupancy_ns(
                    16 if opcode.is_atomic else length),
                opcode.response_carries_payload or opcode.is_atomic,
            )
        return geometry

    def post_send_batch(self, qp: "QueuePair", wrs: list[SendWR]) -> None:
        """Doorbell batching: one MMIO doorbell launches the whole WQE
        list.

        Cohorts the planner can prove safe (quiescent simulator, RC
        one-sided WQEs, lossless fault-free path, all prechecked
        ``SUCCESS``) are planned whole at post time as per-stage FIFO
        recurrences — see :mod:`repro.rnic.batch` — with bit-identical
        results under the barrier contract of
        ``QueuePair.post_send_batch`` (the cohort drains before the
        next post).  Everything else falls back to the per-message
        pipeline, one :class:`_Flight` per WQE; the requester's counters
        tally which path each cohort took and why."""
        if try_fast_path(self, qp, wrs):
            return
        for index, wr in enumerate(wrs):
            self.post_send(qp, wr, _ring_doorbell=(index == 0))

    def post_send(self, qp: "QueuePair", wr: SendWR,
                  _ring_doorbell: bool = True) -> None:
        """Launch the WQE through the discrete pipeline."""
        sim = self.sim
        wr.post_time = sim.now
        wqe = 0
        obs = self._obs
        if obs is not None:
            self._wqe_seq += 1
            wqe = self._wqe_seq
            obs.instant(f"{self.name}.post", category="rnic",
                        component=f"rnic.{self.name}", ts=sim.now, wqe=wqe,
                        opcode=wr.opcode.name, length=wr.length)
        self.launch(qp, wr, "fetch",
                    sim.now + (self.spec.doorbell_ns if _ring_doorbell
                               else 0.0), wqe=wqe)

    def launch(self, qp: "QueuePair", wr: SendWR, stage: str, time: float,
               status: Optional[WCStatus] = None, wqe: int = 0) -> None:
        """Schedule ``wr``'s pipeline :data:`STAGES` entry ``stage`` at
        ``time``.

        :meth:`post_send` starts every WQE at ``"fetch"``; the
        closed-loop planner (:mod:`repro.rnic.closed_loop`) resumes the
        reads it leaves in flight at their next stage, with ``status``
        the outcome of the data stage when they already passed it
        (``None`` before).  Either way the WQE runs as one
        :class:`_Flight` from there on.
        """
        if stage not in STAGES:
            raise ValueError(f"unknown pipeline stage {stage!r}; "
                             f"expected one of {STAGES}")
        flight = _Flight(self, qp, wr, status, wqe)
        if status is None:
            self.sim.schedule_at(time, getattr(flight, stage))
        else:
            self.sim.schedule_at(time, getattr(flight, stage), status)

    # ------------------------------------------------------------------
    # Fluid-flow layer
    # ------------------------------------------------------------------
    @property
    def fluid_flows(self) -> list[FluidFlow]:
        return list(self._fluid_flows.values())

    def add_fluid_flow(self, flow: FluidFlow) -> None:
        """Register a bulk flow contending on this NIC."""
        if flow.flow_id in self._fluid_flows:
            raise ValueError(f"flow {flow.flow_id} already registered")
        self._fluid_flows[flow.flow_id] = flow
        self._reallocate()

    def remove_fluid_flow(self, flow: FluidFlow) -> None:
        if flow.flow_id not in self._fluid_flows:
            raise ValueError(f"flow {flow.flow_id} not registered")
        del self._fluid_flows[flow.flow_id]
        self._reallocate()

    def configure_ets(self, weights: Optional[dict[int, float]]) -> None:
        """Apply an ETS (DWRR) configuration — the ``mlnx_qos`` call of
        the paper's setup.  ``None`` removes the configuration."""
        self.allocator = BandwidthAllocator(self.spec, ets_weights=weights)
        if self._fluid_flows:
            self._reallocate()

    def fluid_bandwidth(self, flow: FluidFlow) -> float:
        """Currently allocated goodput of a registered flow (bps)."""
        try:
            return self._fluid_alloc[flow.flow_id]
        except KeyError:
            raise ValueError(f"flow {flow.flow_id} not registered") from None

    def _reallocate(self) -> None:
        flows = list(self._fluid_flows.values())
        self._fluid_alloc = self.allocator.allocate(flows)
        util = self.allocator.utilizations(flows) if flows else {
            "pcie": 0.0, "wire": 0.0, "pu": 0.0, "translation": 0.0,
        }
        self.pcie.set_background_utilization(util["pcie"])
        self.wire_tx.set_background_utilization(util["wire"])
        self.rxpu.set_background_utilization(util["pu"])
        self.txpu.set_background_utilization(util["pu"])

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RNIC {self.name} spec={self.spec.name}>"


class _Flight:
    """One WQE's trip through the scalar pipeline.

    Each stage method is one scheduled event.  The methods
    :meth:`RNIC.launch` can start a WQE at carry exactly the names in
    :data:`STAGES`; ``retry`` (an RC ACK timeout) and ``rnr_nak`` (a
    Receiver-Not-Ready answer) are reached only from other stages.  A
    stage schedules its successor as a bound method, so the event heap
    holds the only references to a flight and the flight holds none
    back: a WQE is freed by reference counting the moment its last
    event fires, and never reaches the cyclic collector.

    Reliability state lives here too: RC retries on frame loss, and the
    responder's duplicate detection makes re-executed operations
    idempotent (crucial for atomics), modelled by caching the first
    execution's status in ``executed``.  The ACK-timeout budget
    (``retry_count``) and the RNR budget (``rnr_retry``) are separate,
    as in ``ibv_modify_qp``.
    """

    __slots__ = ("nic", "responder", "sim", "qp", "wr", "wqe", "tc",
                 "offset", "fetch_ns", "req_nbytes", "req_wire_ns",
                 "resp_nbytes", "resp_wire_ns", "data_ns", "host_read",
                 "obs", "robs", "comp", "rcomp", "attempts", "rnr_attempts",
                 "executed")

    def __init__(self, nic: RNIC, qp: "QueuePair", wr: SendWR,
                 status: Optional[WCStatus], wqe: int) -> None:
        remote_qp = resolve_remote_qp(qp, wr)
        responder = remote_qp.context.engine
        if not isinstance(responder, RNIC):
            raise TypeError(
                "remote QP's context is not backed by an RNIC engine"
            )
        self.nic = nic
        self.responder = responder
        self.sim = nic.sim
        self.qp = qp
        self.wr = wr
        self.wqe = wqe
        self.tc = qp.traffic_class
        (self.fetch_ns, self.req_nbytes, self.req_wire_ns, self.resp_nbytes,
         self.resp_wire_ns, self.data_ns, self.host_read) = nic.geometry(
            wr.opcode, wr.length, responder)
        # the component labels are only read by the obs spans
        obs = self.obs = nic._obs
        robs = self.robs = responder._obs
        self.comp = f"rnic.{nic.name}" if obs is not None else ""
        self.rcomp = f"rnic.{responder.name}" if robs is not None else ""
        # resolve the remote MR geometry once; protection is enforced by
        # execute_data_movement at the data stage
        offset = 0
        if wr.opcode.is_one_sided:
            try:
                mr = remote_qp.context.mr_by_rkey(wr.rkey)
                offset = wr.remote_addr - mr.addr
            except RemoteAccessError:
                offset = 0
        self.offset = offset
        self.attempts = 0
        self.rnr_attempts = 0
        self.executed = status

    def retry(self) -> None:
        """The RC retransmission timer fired: resend from the fetch, on
        the ACK-timeout budget."""
        if self.wr.flushed:
            return
        nic = self.nic
        self.attempts += 1
        if self.attempts > nic.spec.retry_count:
            self.qp.complete_send(self.wr, WCStatus.RETRY_EXC_ERR,
                                  self.sim.now)
            return
        nic.counters.retransmits += 1
        nic.counters.timeouts += 1
        self.fetch()

    def fetch(self) -> None:
        if self.wr.flushed:
            return
        # WQE fetch (64 B) plus gather of any request payload: the DMA
        # engine is occupied for the transfer, and the message
        # additionally waits out the fixed TLP round-trip latency.
        # Congestion from bulk flows stretches both: the engine by the
        # M/G/1 inflation, the round trip by queueing at the root
        # complex (modelled as 1 + utilization).
        #
        # Inline posts are the classic fast path: the CPU writes
        # WQE+payload through MMIO (a posted write), so there is no DMA
        # read round trip at all.
        nic = self.nic
        sim = self.sim
        now = sim.now
        finish = nic.pcie.admit(now, self.fetch_ns)
        if self.obs is not None:
            self.obs.span("pcie.fetch", now, finish - now, category="rnic",
                          component=self.comp, wqe=self.wqe)
        if self.wr.inline:
            sim.schedule_at(finish, self.txpu)
            return
        congestion = 1.0 + nic.pcie.background_utilization
        round_trip = nic.spec.pcie.tlp_latency_ns * congestion
        sim.schedule_at(finish + round_trip, self.txpu)

    def txpu(self) -> None:
        now = self.sim.now
        finish = self.nic.txpu.admit(now, self.nic.spec.txpu_ns)
        if self.obs is not None:
            self.obs.span("txpu", now, finish - now, category="rnic",
                          component=self.comp, wqe=self.wqe)
        self.sim.schedule_at(finish, self.wire_out)

    def wire_out(self) -> None:
        nic = self.nic
        responder = self.responder
        sim = self.sim
        wr = self.wr
        now = sim.now
        finish = nic.wire_tx.admit(now, self.req_wire_ns)
        if self.obs is not None:
            self.obs.span("wire.request", now, finish - now, category="rnic",
                          component=self.comp, wqe=self.wqe,
                          nbytes=self.req_nbytes)
        nic.counters.record_tx(self.req_nbytes, tc=self.tc, opcode=wr.opcode)
        if (not self.qp.qp_type.acks_requests
                and not wr.opcode.response_carries_payload):
            # unreliable transports are fire-and-forget: the local
            # completion fires at send time; a lost frame silently
            # drops the remote effect
            sim.schedule_at(finish, self.complete, WCStatus.SUCCESS)
            if nic._frame_lost(nic, responder):
                return
            sim.schedule_at(finish + nic._transit_ns(responder),
                            self.responder_rx)
            return
        if nic._frame_lost(nic, responder):
            # request frame lost: the RC retransmission timer fires
            sim.schedule_at(finish + nic.spec.retry_timeout_ns, self.retry)
            return
        sim.schedule_at(finish + nic._transit_ns(responder),
                        self.responder_rx)

    def responder_rx(self) -> None:
        responder = self.responder
        now = self.sim.now
        responder.counters.record_rx(self.req_nbytes, tc=self.tc)
        finish = responder.rxpu.admit(now, responder.spec.rxpu_ns)
        if self.robs is not None:
            self.robs.span("rxpu", now, finish - now, category="rnic",
                           component=self.rcomp, wqe=self.wqe)
        self.sim.schedule_at(finish, self.translate)

    def translate(self) -> None:
        wr = self.wr
        now = self.sim.now
        if wr.opcode.is_one_sided:
            finish, _ = self.responder.translation.admit(
                now, wr.rkey, self.offset, wr.length
            )
            if self.robs is not None:
                self.robs.span("translate", now, finish - now,
                               category="rnic", component=self.rcomp,
                               wqe=self.wqe)
        else:
            finish = now
        self.sim.schedule_at(finish, self.data)

    def rnr_nak(self, nak_arrival: float) -> None:
        """Responder answered Receiver-Not-Ready: back off min_rnr_timer
        and resend, on the separate rnr_retry budget."""
        nic = self.nic
        self.rnr_attempts += 1
        nic.counters.rnr_naks += 1
        if self.rnr_attempts > nic.spec.rnr_retry:
            self.sim.schedule_at(nak_arrival, self.complete,
                                 WCStatus.RNR_RETRY_EXC_ERR)
            return
        nic.counters.retransmits += 1
        self.sim.schedule_at(nak_arrival + nic.spec.min_rnr_timer_ns,
                             self.fetch)

    def data(self) -> None:
        wr = self.wr
        if wr.flushed:
            return
        qp = self.qp
        responder = self.responder
        rspec = responder.spec
        sim = self.sim
        if self.executed is None:
            first_status = execute_data_movement(qp, wr)
            if (first_status is WCStatus.RNR_RETRY_EXC_ERR
                    and qp.qp_type.acks_requests):
                # the RNR NAK rides the responder's TxPU and the return
                # path like any response frame (NAK loss is not
                # modelled: a lost NAK would fall back to the slower
                # ACK-timeout retry, same outcome later)
                finish = responder.txpu.admit(sim.now, rspec.txpu_ns)
                self.rnr_nak(finish + responder._transit_ns(self.nic))
                return
            self.executed = first_status
        status = self.executed
        now = sim.now
        finish = responder.pcie.admit(now, self.data_ns)
        if self.robs is not None:
            # atomics move 8 B each way
            self.robs.span("pcie.data", now, finish - now, category="rnic",
                           component=self.rcomp, wqe=self.wqe,
                           nbytes=16 if wr.opcode.is_atomic else wr.length)
        # host-read DMAs (read/atomic responses) wait the TLP round trip
        # — stretched by congestion; posted writes complete at the
        # engine
        if self.host_read:
            round_trip = rspec.pcie.tlp_latency_ns * (
                1.0 + responder.pcie.background_utilization
            )
            if rspec.ddio_enabled:
                # DMA from the LLC when resident, bimodal otherwise
                if responder._ddio_rng.random() < rspec.ddio_hit_rate:
                    round_trip -= rspec.ddio_saving_ns
                else:
                    round_trip += rspec.ddio_miss_penalty_ns
            finish += round_trip
        if (not qp.qp_type.acks_requests
                and not wr.opcode.response_carries_payload):
            # unreliable transports: no response flow, and the local
            # completion already fired at send time
            return
        sim.schedule_at(finish, self.response, status)

    def response(self, status: WCStatus) -> None:
        now = self.sim.now
        finish = self.responder.txpu.admit(now, self.responder.spec.txpu_ns)
        if self.robs is not None:
            self.robs.span("txpu.response", now, finish - now,
                           category="rnic", component=self.rcomp,
                           wqe=self.wqe)
        self.sim.schedule_at(finish, self.wire_back, status)

    def wire_back(self, status: WCStatus) -> None:
        nic = self.nic
        responder = self.responder
        sim = self.sim
        now = sim.now
        finish = responder.wire_tx.admit(now, self.resp_wire_ns)
        if self.robs is not None:
            self.robs.span("wire.response", now, finish - now,
                           category="rnic", component=self.rcomp,
                           wqe=self.wqe, nbytes=self.resp_nbytes)
        responder.counters.record_tx(self.resp_nbytes, tc=self.tc)
        if nic._frame_lost(responder, nic):
            # ACK/response frame lost: requester times out and resends;
            # the responder's replay cache answers without re-executing
            sim.schedule_at(finish + nic.spec.retry_timeout_ns, self.retry)
            return
        sim.schedule_at(finish + responder._transit_ns(nic),
                        self.requester_rx, status)

    def requester_rx(self, status: WCStatus) -> None:
        # the frames on the wire were built by the *responder*, so the
        # byte count uses the responder's header geometry (it must
        # mirror wire_back's record_tx exactly)
        nic = self.nic
        now = self.sim.now
        nic.counters.record_rx(self.resp_nbytes, tc=self.tc)
        finish = nic.rxpu.admit(now, nic.spec.rxpu_ns)
        cqe = nic.pcie.admit(finish, nic.spec.cqe_write_ns)
        if self.obs is not None:
            self.obs.span("rxpu.cqe", now, cqe - now, category="rnic",
                          component=self.comp, wqe=self.wqe)
        self.sim.schedule_at(cqe, self.complete, status)

    def complete(self, status: WCStatus) -> None:
        wr = self.wr
        if wr.flushed:
            return
        now = self.sim.now
        if self.obs is not None:
            self.obs.span("wqe", wr.post_time, now - wr.post_time,
                          category="rnic", component=self.comp, wqe=self.wqe,
                          status=status.name)
        self.qp.complete_send(wr, status, now)
