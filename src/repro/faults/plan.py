"""Scenario-driven fault plans.

A :class:`FaultPlan` names one reproducible degradation scenario and
knows how to arm it on a live :class:`~repro.host.cluster.Cluster`:
per-link fault models (see :mod:`repro.faults.models`), a PFC
pause-storm injector stalling the server port's wire transmitter, and
an RNR-pressure workload that keeps the server's receive queue starved
so SENDs exercise the RNR NAK/backoff path.

Plans hold *factories*, not model instances: each endpoint gets a
fresh stateful model on install, so one plan can arm many clusters
(replays, sweeps) without shared mutable state.  Every random draw the
armed scenario makes flows through named ``sim.random`` streams, so
``repro.lint --audit`` replays stay bit-identical.

The named catalogue lives in :data:`SCENARIOS`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Optional

from repro.fabric.network import LinkFault
from repro.faults.models import GilbertElliott, LinkFlap
from repro.host.cluster import Cluster
from repro.host.node import Host
from repro.sim.units import MICROSECONDS
from repro.verbs.enums import Opcode, WCStatus
from repro.verbs.qp import QPCapabilities
from repro.verbs.wr import RecvWR, SendWR, WorkCompletion

#: Factory producing a fresh fault-model instance per endpoint link.
FaultFactory = Callable[[], LinkFault]


@dataclasses.dataclass(frozen=True)
class PauseStorm:
    """Parameters of a periodic PFC pause storm on the server port.

    Real pause storms come from a misbehaving peer or a congested
    downstream port flooding ``802.3x``/PFC pause frames; the effect at
    the victim NIC is that its wire transmitter may not start new
    frames until the pause quanta expire.  We model exactly that
    observable: every ``period_ns`` starting at ``start_ns`` the port's
    wire-Tx station is stalled for ``pause_ns``.
    """

    start_ns: float = 20 * MICROSECONDS
    period_ns: float = 100 * MICROSECONDS
    pause_ns: float = 40 * MICROSECONDS
    #: Number of pause bursts; 0 means "for the rest of the run".
    count: int = 0

    def __post_init__(self) -> None:
        if self.period_ns <= 0.0:
            raise ValueError(f"period must be positive, got {self.period_ns!r}")
        if self.pause_ns <= 0.0:
            raise ValueError(f"pause must be positive, got {self.pause_ns!r}")
        if self.start_ns < 0.0 or self.count < 0:
            raise ValueError("start time and count must be non-negative")


class PauseStormInjector:
    """Schedules a :class:`PauseStorm` against one or more RNIC ports."""

    def __init__(self, cluster: Cluster, hosts: Iterable[Host],
                 storm: PauseStorm) -> None:
        self.sim = cluster.sim
        self.rnics = [host.rnic for host in hosts]
        self.storm = storm
        self.fired = 0
        # pending burst handle, cancelled by stop(); a dropped handle
        # would keep the storm alive (and double it after a restart)
        self._handle = None
        self._running = False

    def start(self) -> None:
        if self._running:
            raise RuntimeError("pause storm already running")
        self._running = True
        self._handle = self.sim.schedule_at(self.storm.start_ns, self._pause)

    def stop(self) -> None:
        """Cancel the pending burst; the storm can be restarted."""
        self._running = False
        if self._handle is not None:
            self.sim.cancel(self._handle)
            self._handle = None

    def _pause(self) -> None:
        self._handle = None
        for rnic in self.rnics:
            rnic.wire_tx.stall_until(self.sim.now + self.storm.pause_ns)
            rnic.counters.pause_events += 1
        self.fired += 1
        if self.storm.count == 0 or self.fired < self.storm.count:
            self._handle = self.sim.schedule(self.storm.period_ns, self._pause)
        else:
            self._running = False


@dataclasses.dataclass(frozen=True)
class RnrPressure:
    """Parameters of an RNR-pressure workload against the server.

    A dedicated client pipelines SENDs into a server QP whose receive
    queue is replenished slower than the SENDs arrive, so most SENDs
    find the RQ empty and ride the RNR NAK / ``min_rnr_timer`` backoff
    path — contending for the same TxPU, wire and DMA stations as the
    channel under test.
    """

    #: SENDs kept in flight by the pressure client.
    depth: int = 8
    #: Payload bytes per SEND; one full MTU keeps the responder's
    #: stations occupied long enough to visibly contend with probe
    #: traffic, not just with the RQ.
    msg_bytes: int = 4096
    #: Receive buffers posted per replenish tick.
    recv_slots: int = 2
    #: Replenish period; larger values starve the RQ harder.
    replenish_ns: float = 20 * MICROSECONDS

    def __post_init__(self) -> None:
        if self.depth <= 0 or self.msg_bytes <= 0 or self.recv_slots <= 0:
            raise ValueError("depth, msg_bytes and recv_slots must be positive")
        if self.replenish_ns <= 0.0:
            raise ValueError("replenish period must be positive")


class RnrPressureClient:
    """The live workload armed from an :class:`RnrPressure` config.

    SENDs occasionally exhaust their RNR retry budget (that is the
    point of the scenario), which moves the QP to ERROR and flushes
    everything in flight.  The client then does what a real messaging
    workload does: tears the connection down and reconnects with a
    fresh QP pair, so the pressure persists for the whole run instead
    of dying at the first budget exhaustion.
    """

    HOST_NAME = "faults.rnr-pressure"

    def __init__(self, cluster: Cluster, server: Host,
                 config: RnrPressure) -> None:
        self.config = config
        self.cluster = cluster
        self.server = server
        self.sim = cluster.sim
        self.host = cluster.add_host(self.HOST_NAME, spec=server.rnic.spec)
        self.recv_mr = server.reg_mr(
            max(4096, config.msg_bytes * config.recv_slots)
        )
        self.send_mr = self.host.reg_mr(max(4096, config.msg_bytes))
        self.qp = None
        self.server_qp = None
        self.completed = 0
        self.reconnects = 0
        # pending-event handles, cancelled by stop(): the replenish
        # chain and any scheduled reconnect must not outlive the client
        self._replenish_handle = None
        self._reconnect_handle = None
        self._running = False

    def start(self) -> None:
        if self._running:
            raise RuntimeError("pressure client already running")
        self._running = True
        self._connect()
        self._replenish_handle = self.sim.schedule(
            self.config.replenish_ns, self._replenish)

    def stop(self) -> None:
        """Quiesce: cancel the replenish chain and any pending
        reconnect.  In-flight SENDs drain on their own; no new work is
        issued afterwards."""
        self._running = False
        if self._replenish_handle is not None:
            self.sim.cancel(self._replenish_handle)
            self._replenish_handle = None
        if self._reconnect_handle is not None:
            self.sim.cancel(self._reconnect_handle)
            self._reconnect_handle = None

    def _connect(self) -> None:
        self._reconnect_handle = None
        # Build the QP pair directly (not Cluster.connect): reconnects
        # recur for the whole run, so the one send MR is reused rather
        # than registering a fresh buffer per connection.
        cap = QPCapabilities(max_send_wr=max(self.config.depth, 2))
        client_cq = self.host.context.create_cq()
        server_cq = self.server.context.create_cq()
        qp = self.host.context.create_qp(self.host.pd, client_cq, cap=cap)
        self.server_qp = self.server.context.create_qp(
            self.server.pd, server_cq, cap=cap
        )
        qp.connect(self.server_qp)
        # bind the callback to THIS QP: after a reconnect the torn-down
        # QP still flushes CQEs into its old CQ, which must not be
        # confused with the live connection
        client_cq.on_completion = lambda wc: self._on_completion(qp, wc)
        # the server app consumes delivered messages as they land; an
        # undrained recv CQ would overflow over a long run
        server_cq.on_completion = lambda wc: server_cq.poll(1)
        self.qp = qp
        for _ in range(self.config.depth):
            self._post_send()

    def _post_send(self) -> None:
        self.qp.post_send(SendWR(
            opcode=Opcode.SEND,
            local_addr=self.send_mr.addr,
            length=self.config.msg_bytes,
        ))

    def _on_completion(self, qp, wc: WorkCompletion) -> None:
        qp.send_cq.poll(1)
        if qp is not self.qp:
            return  # a replaced connection draining its flush CQEs
        if not wc.ok:
            # RNR budget exhausted: the QP is in ERROR and the rest of
            # the pipeline flushes as WR_FLUSH_ERR.  Do what a real
            # messaging workload does — reconnect with a fresh QP pair
            # after a grace period, keeping the pressure alive.
            if wc.status is not WCStatus.WR_FLUSH_ERR and self._running:
                self.reconnects += 1
                self._reconnect_handle = self.sim.schedule(
                    self.config.replenish_ns, self._connect)
            return
        self.completed += 1
        if self._running:
            self._post_send()

    def _replenish(self) -> None:
        for index in range(self.config.recv_slots):
            self.server_qp.post_recv(RecvWR(
                local_addr=self.recv_mr.addr + index * self.config.msg_bytes,
                length=self.config.msg_bytes,
            ))
        self._replenish_handle = self.sim.schedule(
            self.config.replenish_ns, self._replenish)


@dataclasses.dataclass
class ArmedFaults:
    """The live pieces one ``FaultPlan.install`` armed — kept so a
    caller can quiesce injection mid-run (both carry cancel-on-stop
    lifecycles; see RAG104)."""

    pause_storm: Optional[PauseStormInjector] = None
    rnr_pressure: Optional[RnrPressureClient] = None

    def stop(self) -> None:
        if self.pause_storm is not None:
            self.pause_storm.stop()
        if self.rnr_pressure is not None:
            self.rnr_pressure.stop()


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """One named, reproducible fault scenario.

    ``install`` arms the plan on a live cluster before traffic starts:
    fresh per-endpoint fault models from the factories, the pause-storm
    injector on the server port, and the RNR-pressure workload against
    the server.  Passing no server/endpoints arms nothing from the
    corresponding part — a plan degrades to whatever the topology
    supports.
    """

    name: str
    description: str = ""
    #: Fresh fault model per *endpoint* (covert Tx/Rx) access link.
    endpoint_fault: Optional[FaultFactory] = None
    #: Fresh fault model for the *server* access link.
    server_fault: Optional[FaultFactory] = None
    pause_storm: Optional[PauseStorm] = None
    rnr_pressure: Optional[RnrPressure] = None

    @property
    def is_clean(self) -> bool:
        """True when the plan injects nothing (the baseline scenario)."""
        return (self.endpoint_fault is None and self.server_fault is None
                and self.pause_storm is None and self.rnr_pressure is None)

    def install(
        self,
        cluster: Cluster,
        server: Optional[Host] = None,
        endpoints: Iterable[Host] = (),
    ) -> ArmedFaults:
        """Arm the plan on ``cluster``.  Link fault models live on the
        cluster's network; the returned :class:`ArmedFaults` exposes the
        scheduled injectors so callers can ``stop()`` them."""
        armed = ArmedFaults()
        if self.endpoint_fault is not None:
            for host in endpoints:
                cluster.network.set_fault(host.rnic, self.endpoint_fault())
        if server is None:
            return armed
        if self.server_fault is not None:
            cluster.network.set_fault(server.rnic, self.server_fault())
        if self.pause_storm is not None:
            armed.pause_storm = PauseStormInjector(
                cluster, [server], self.pause_storm)
            armed.pause_storm.start()
        if self.rnr_pressure is not None:
            armed.rnr_pressure = RnrPressureClient(
                cluster, server, self.rnr_pressure)
            armed.rnr_pressure.start()
        return armed


def clean_plan() -> FaultPlan:
    """Baseline: no faults; the reference point every scenario is
    compared against."""
    return FaultPlan(name="clean", description="no injected faults")


def bursty_loss_plan(
    p_enter_bad: float = 0.005,
    p_exit_bad: float = 0.3,
    loss_bad: float = 0.25,
) -> FaultPlan:
    """Gilbert–Elliott bursty loss on every endpoint access link."""
    return FaultPlan(
        name="bursty-loss",
        description=(
            f"Gilbert-Elliott loss on endpoint links "
            f"(enter={p_enter_bad}, exit={p_exit_bad}, bad={loss_bad})"
        ),
        endpoint_fault=lambda: GilbertElliott(
            p_enter_bad=p_enter_bad, p_exit_bad=p_exit_bad, loss_bad=loss_bad
        ),
    )


def pause_storm_plan(
    period_ns: float = 100 * MICROSECONDS,
    pause_ns: float = 4 * MICROSECONDS,
) -> FaultPlan:
    """Periodic PFC pause storm stalling the server's wire Tx."""
    return FaultPlan(
        name="pause-storm",
        description=(
            f"PFC pause storm on the server port "
            f"({pause_ns:.0f}ns pause every {period_ns:.0f}ns)"
        ),
        pause_storm=PauseStorm(period_ns=period_ns, pause_ns=pause_ns),
    )


def rnr_pressure_plan(
    depth: int = 4, replenish_ns: float = 30 * MICROSECONDS
) -> FaultPlan:
    """RNR-pressure SEND workload starving the server's RQ."""
    return FaultPlan(
        name="rnr-pressure",
        description=(
            f"SEND client (depth={depth}) against an RQ replenished "
            f"every {replenish_ns:.0f}ns"
        ),
        rnr_pressure=RnrPressure(depth=depth, replenish_ns=replenish_ns),
    )


def link_flap_plan() -> FaultPlan:
    """Periodic administrative flaps of the server access link."""
    return FaultPlan(
        name="link-flap",
        description="server link flaps 200us down out of every 2ms",
        server_fault=LinkFlap,
    )


#: Named scenario catalogue.  Values are zero-argument factories so
#: each lookup yields an independent plan (the stateful fault models
#: inside are themselves created fresh on every ``install``).
SCENARIOS: dict[str, Callable[[], FaultPlan]] = {
    "clean": clean_plan,
    "bursty-loss": bursty_loss_plan,
    "pause-storm": pause_storm_plan,
    "rnr-pressure": rnr_pressure_plan,
    "link-flap": link_flap_plan,
}


def get_scenario(name: str) -> FaultPlan:
    """Build the named scenario, with a helpful error on typos."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None
    return factory()
