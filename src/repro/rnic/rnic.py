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
        return (self.network.transit_ns(self, dst)
                + self.network.path_extra_ns(self, dst, self.sim.now))

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
        closure pipeline below; the requester's counters tally which
        path each cohort took and why."""
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
        (``None`` before).  Either way the WQE runs the one closure
        pipeline below from there on.
        """
        sim = self.sim
        spec = self.spec
        remote_qp = resolve_remote_qp(qp, wr)
        responder: RNIC = remote_qp.context.engine  # type: ignore[assignment]
        if not isinstance(responder, RNIC):
            raise TypeError(
                "remote QP's context is not backed by an RNIC engine"
            )
        tc = qp.traffic_class
        rspec = responder.spec
        (fetch_occupancy, req_nbytes, req_wire_ns, resp_nbytes, resp_wire_ns,
         data_occupancy, host_read) = self.geometry(wr.opcode, wr.length,
                                                    responder)

        obs = self._obs
        robs = responder._obs
        comp = f"rnic.{self.name}"
        rcomp = f"rnic.{responder.name}"

        # resolve the remote MR geometry once; protection is enforced by
        # execute_data_movement at the data stage
        mr_key = wr.rkey
        offset = 0
        if wr.opcode.is_one_sided:
            try:
                mr = remote_qp.context.mr_by_rkey(wr.rkey)
                offset = wr.remote_addr - mr.addr
            except RemoteAccessError:
                offset = 0

        # reliability state: RC retries on frame loss; the responder's
        # duplicate detection makes re-executed operations idempotent
        # (crucial for atomics), modelled by caching the first
        # execution's status.  The ACK-timeout budget (retry_count) and
        # the RNR budget (rnr_retry) are separate, as in ibv_modify_qp.
        attempts = [0]
        rnr_attempts = [0]
        executed_status: list[Optional[WCStatus]] = [status]

        def stage_retry() -> None:
            if wr.flushed:
                return
            attempts[0] += 1
            if attempts[0] > spec.retry_count:
                qp.complete_send(wr, WCStatus.RETRY_EXC_ERR, sim.now)
                return
            self.counters.retransmits += 1
            self.counters.timeouts += 1
            stage_fetch()

        def stage_fetch() -> None:
            if wr.flushed:
                return
            # WQE fetch (64 B) plus gather of any request payload: the
            # DMA engine is occupied for the transfer, and the message
            # additionally waits out the fixed TLP round-trip latency.
            # Congestion from bulk flows stretches both: the engine by
            # the M/G/1 inflation, the round trip by queueing at the
            # root complex (modelled as 1 + utilization).
            #
            # Inline posts are the classic fast path: the CPU writes
            # WQE+payload through MMIO (a posted write), so there is no
            # DMA read round trip at all.
            finish = self.pcie.admit(sim.now, fetch_occupancy)
            if obs is not None:
                obs.span("pcie.fetch", sim.now, finish - sim.now,
                         category="rnic", component=comp, wqe=wqe)
            if wr.inline:
                sim.schedule_at(finish, stage_txpu)
                return
            congestion = 1.0 + self.pcie.background_utilization
            round_trip = spec.pcie.tlp_latency_ns * congestion
            sim.schedule_at(finish + round_trip, stage_txpu)

        def stage_txpu() -> None:
            finish = self.txpu.admit(sim.now, spec.txpu_ns)
            if obs is not None:
                obs.span("txpu", sim.now, finish - sim.now,
                         category="rnic", component=comp, wqe=wqe)
            sim.schedule_at(finish, stage_wire_out)

        def stage_wire_out() -> None:
            finish = self.wire_tx.admit(sim.now, req_wire_ns)
            if obs is not None:
                obs.span("wire.request", sim.now, finish - sim.now,
                         category="rnic", component=comp, wqe=wqe,
                         nbytes=req_nbytes)
            self.counters.record_tx(req_nbytes, tc=tc, opcode=wr.opcode)
            if not qp.qp_type.acks_requests and not wr.opcode.response_carries_payload:
                # unreliable transports are fire-and-forget: the local
                # completion fires at send time; a lost frame silently
                # drops the remote effect
                sim.schedule_at(finish, stage_complete, WCStatus.SUCCESS)
                if self._frame_lost(self, responder):
                    return
                sim.schedule_at(
                    finish + self._transit_ns(responder), stage_responder_rx
                )
                return
            if self._frame_lost(self, responder):
                # request frame lost: the RC retransmission timer fires
                sim.schedule_at(finish + spec.retry_timeout_ns, stage_retry)
                return
            sim.schedule_at(finish + self._transit_ns(responder), stage_responder_rx)

        def stage_responder_rx() -> None:
            responder.counters.record_rx(req_nbytes, tc=tc)
            finish = responder.rxpu.admit(sim.now, rspec.rxpu_ns)
            if robs is not None:
                robs.span("rxpu", sim.now, finish - sim.now,
                          category="rnic", component=rcomp, wqe=wqe)
            sim.schedule_at(finish, stage_translate)

        def stage_translate() -> None:
            if wr.opcode.is_one_sided:
                finish, _ = responder.translation.admit(
                    sim.now, mr_key, offset, wr.length
                )
                if robs is not None:
                    robs.span("translate", sim.now, finish - sim.now,
                              category="rnic", component=rcomp, wqe=wqe)
            else:
                finish = sim.now
            sim.schedule_at(finish, stage_data)

        def stage_rnr_nak(nak_arrival: float) -> None:
            """Responder answered Receiver-Not-Ready: back off
            min_rnr_timer and resend, on the separate rnr_retry budget."""
            rnr_attempts[0] += 1
            self.counters.rnr_naks += 1
            if rnr_attempts[0] > spec.rnr_retry:
                sim.schedule_at(nak_arrival, stage_complete,
                                WCStatus.RNR_RETRY_EXC_ERR)
                return
            self.counters.retransmits += 1
            sim.schedule_at(nak_arrival + spec.min_rnr_timer_ns, stage_fetch)

        def stage_data() -> None:
            if wr.flushed:
                return
            if executed_status[0] is None:
                first_status = execute_data_movement(qp, wr)
                if (first_status is WCStatus.RNR_RETRY_EXC_ERR
                        and qp.qp_type.acks_requests):
                    # the RNR NAK rides the responder's TxPU and the
                    # return path like any response frame (NAK loss is
                    # not modelled: a lost NAK would fall back to the
                    # slower ACK-timeout retry, same outcome later)
                    finish = responder.txpu.admit(
                        sim.now, rspec.txpu_ns
                    )
                    stage_rnr_nak(finish + responder._transit_ns(self))
                    return
                executed_status[0] = first_status
            status = executed_status[0]
            finish = responder.pcie.admit(sim.now, data_occupancy)
            if robs is not None:
                # atomics move 8 B each way
                robs.span("pcie.data", sim.now, finish - sim.now,
                          category="rnic", component=rcomp, wqe=wqe,
                          nbytes=16 if wr.opcode.is_atomic else wr.length)
            # host-read DMAs (read/atomic responses) wait the TLP
            # round trip — stretched by congestion; posted writes
            # complete at the engine
            if host_read:
                round_trip = rspec.pcie.tlp_latency_ns * (
                    1.0 + responder.pcie.background_utilization
                )
                if rspec.ddio_enabled:
                    # DMA from the LLC when resident, bimodal otherwise
                    rng = responder._ddio_rng
                    if rng.random() < rspec.ddio_hit_rate:
                        round_trip -= rspec.ddio_saving_ns
                    else:
                        round_trip += rspec.ddio_miss_penalty_ns
                finish += round_trip
            if not qp.qp_type.acks_requests and not wr.opcode.response_carries_payload:
                # unreliable transports: no response flow, and the local
                # completion already fired at send time
                return
            sim.schedule_at(finish, stage_response, status)

        def stage_response(status: WCStatus) -> None:
            finish = responder.txpu.admit(sim.now, rspec.txpu_ns)
            if robs is not None:
                robs.span("txpu.response", sim.now, finish - sim.now,
                          category="rnic", component=rcomp, wqe=wqe)
            sim.schedule_at(finish, stage_wire_back, status)

        def stage_wire_back(status: WCStatus) -> None:
            finish = responder.wire_tx.admit(sim.now, resp_wire_ns)
            if robs is not None:
                robs.span("wire.response", sim.now, finish - sim.now,
                          category="rnic", component=rcomp, wqe=wqe,
                          nbytes=resp_nbytes)
            responder.counters.record_tx(resp_nbytes, tc=tc)
            if self._frame_lost(responder, self):
                # ACK/response frame lost: requester times out and
                # resends; the responder's replay cache answers without
                # re-executing
                sim.schedule_at(finish + spec.retry_timeout_ns, stage_retry)
                return
            sim.schedule_at(
                finish + responder._transit_ns(self), stage_requester_rx, status
            )

        def stage_requester_rx(status: WCStatus) -> None:
            # the frames on the wire were built by the *responder*, so
            # the byte count uses the responder's header geometry (it
            # must mirror stage_wire_back's record_tx exactly)
            self.counters.record_rx(resp_nbytes, tc=tc)
            finish = self.rxpu.admit(sim.now, spec.rxpu_ns)
            cqe = self.pcie.admit(finish, spec.cqe_write_ns)
            if obs is not None:
                obs.span("rxpu.cqe", sim.now, cqe - sim.now,
                         category="rnic", component=comp, wqe=wqe)
            sim.schedule_at(cqe, stage_complete, status)

        def stage_complete(status: WCStatus) -> None:
            if wr.flushed:
                return
            if obs is not None:
                obs.span("wqe", wr.post_time, sim.now - wr.post_time,
                         category="rnic", component=comp, wqe=wqe,
                         status=status.name)
            qp.complete_send(wr, status, sim.now)

        first = (stage_fetch, stage_txpu, stage_wire_out, stage_responder_rx,
                 stage_translate, stage_data, stage_response, stage_wire_back,
                 stage_requester_rx, stage_complete)[STAGES.index(stage)]
        if status is None:
            sim.schedule_at(time, first)
        else:
            sim.schedule_at(time, first, status)

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

    def update_fluid_flow(self, flow: FluidFlow) -> None:
        """Recompute allocations after a registered flow's parameters
        changed in place (e.g. a policer capped its demand)."""
        if flow.flow_id not in self._fluid_flows:
            raise ValueError(f"flow {flow.flow_id} not registered")
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
