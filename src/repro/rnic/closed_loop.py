"""Closed-loop planner for RDMA Read readers sharing one responder.

A closed-loop reader keeps ``depth`` RDMA Reads outstanding on one RC
QP and posts the next read the moment a completion arrives.  The ULI
probe (:class:`repro.telemetry.uli.ULIProbe`) is one reader; a lockstep
covert channel (:class:`repro.covert.uli_channel._Session`) is two, a
sender and a receiver on separate requester hosts, hammering one
server.  On the per-message pipeline every read is ten scheduled
events, the stage methods of its flight (fetch, TxPU, wire, responder
RxPU, translate, data, response, wire back, requester Rx, complete).
With nothing else running, every one of those event times follows from
the reads before it, so :class:`Plan` computes the whole run as one
plain-float recurrence over the station admissions and the translation
unit — no heap, no flights — and leaves the simulator exactly where the
scalar run would have.  :func:`try_closed_loop`, the probe, is the
one-reader case.

Private stations.  Each reader's requester host is its own: its PCIe
engine, TxPU, wire and RxPU serve only that reader's reads.  Read ``j``
is posted at ``P_j`` — the start for the ``depth`` reads that fill the
queue, read ``j - depth``'s completion after that — and its fetch
fires at ``P_j + doorbell``.  Every private station but the PCIe engine
admits the reader's reads in post order: each one is single-server
FIFO, reached through FIFO stations with per-run constant extras (the
TLP round trips, the transits), and equal-time events fire in
scheduling order, which is post order too.  So each station is
:meth:`~repro.rnic.station.ServiceStation.admit` inlined on shadow
floats.  The PCIe engine serves two streams: WQE fetches (admitted at
their event time) and CQE writes (admitted by the requester-Rx event).
Read ``k``'s requester-Rx event comes after its own fetch, and every
fetch that fires before it was posted by an earlier completion, so the
recurrence admits the fetches that fire before read ``k``'s requester-Rx
event, then read ``k``'s CQE write.  An exact fetch/requester-Rx tie
would be ordered by sequence numbers this merge does not track, so it
declines (``tie``).

Shared stations.  At the responder — RxPU, translation unit, PCIe,
response TxPU and wire — the readers' reads are merged in event-time
order at the RxPU, one read at a time: the next read to admit is the
earliest arrival among the readers' next reads, each computed from its
reader's private recurrence as soon as the reads before it are back.
Every shared station serves with a positive service time, and the
translation unit's finishes rise with its admissions, so each stage
hands the next one its reads in the RxPU's order, at strictly rising
times: the merged order at the RxPU is the admission order at every
shared station.  Two readers' reads arriving at the RxPU at exactly the
same time are common — symmetric endpoints post their first reads at
the same instant — and are ordered as the kernel orders them: by which
event was scheduled first.  That follows from the times of the events
that scheduled them (wire, TxPU, fetch, the completion that posted the
read, its requester-Rx and the responder wire stage before that, where
two readers' chains must part), compared in turn (:func:`_arrival_key`).
The same order ranks the readers' posts for the WQE sequence numbers.

Cuts.  :func:`try_closed_loop` stops right after the ``count``-th
completion, at ``T``: the plan admits only the stage events that fire
before ``T`` — station state, counters, the translation unit and its
RNG, data movement, QP/CQ bookkeeping — and hands each read still in
flight to the unchanged scalar pipeline (:meth:`repro.rnic.rnic.RNIC.
launch`) at its next stage and exact time.  A stage event at exactly
``T`` (other than the fetch of the read posted at ``T`` with a zero
doorbell, which the scalar loop schedules after the completion) or two
in-flight reads pending at the same time would need sequence numbers:
``tie``.  A lockstep session is planned from its quiescent start, before
either reader posts.  :meth:`Plan.warm_up` runs to the receiver's
``N``-th completion and publishes the completions before it, but
commits nothing: the shadow state carries on.  :meth:`Plan.finish`
takes the frame's bit flips, which switch the sender's target set at
known times, and runs to ``until`` as ``Simulator.run(until=)`` does
(every event at or before it fires), then commits and launches the
reads still in flight.  A flip at the exact time of a sender
completion, or a warm-up that already ran past ``until`` (``horizon``),
declines.

Guard.  The path half is the cohort planner's
(:func:`repro.rnic.batch.path_guard`, :class:`~repro.rnic.batch.
RemoteProof`): any pending event (``not_quiescent`` — another tenant, a
fault injector, a sampler), dispatch hooks, observers, loss or fault
processes (``lossy``).  Per reader: outstanding WQEs
(``not_quiescent``), a QP the posts would raise on (``qp_state``), DDIO
(``ddio``: its round-trip draw can reorder responses), a full CQ
(``cq_space``), stale CQEs or a completion hook other than the reader's
own (``cq_in_use``).  Readers must share one responder and each have a
requester NIC of its own, and every shared station a positive service
time (``order``).  Ties are found only after the translation unit ran,
so the unit is checkpointed when the plan starts and restored on a
decline; nothing else is mutated before the commit.  Each decline is
counted on the first reader's requester
:class:`~repro.rnic.counters.NICCounters`; each planned probe run in
``closed_loop_runs``, each planned session in ``lockstep_runs``.
``REPRO_RNIC_BATCH=0`` switches this planner off with the cohort
planner.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
import types
from collections import Counter
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.rnic import batch
from repro.rnic.batch import Declined, RemoteProof, count_fallback, path_guard
from repro.rnic.rnic import RNIC, STAGES
from repro.verbs.engine import move_one_sided
from repro.verbs.enums import Opcode, QPState, WCStatus
from repro.verbs.wr import make_read_wr, skip_wqe_seqs

if TYPE_CHECKING:  # pragma: no cover
    from repro.host.cluster import RDMAConnection

__all__ = ["Plan", "try_closed_loop"]

#: Resumed stages from here on carry the data stage's outcome.
_PAST_DATA = STAGES.index("response")
_INF = float("inf")
_READ = Opcode.RDMA_READ


def try_closed_loop(conn: "RDMAConnection", targets: Sequence,
                    depth: int, count: int) -> Optional[list]:
    """Run a depth-``depth`` probe loop of RDMA Reads on ``conn`` until
    ``count`` completions have been consumed, cycling over ``targets``
    (objects with ``mr``, ``offset`` and ``size``) from the first.

    Returns the ULI of every consumed completion, or ``None`` with
    nothing mutated beyond the requester's path counters: the caller
    then runs the loop on the scalar pipeline."""
    rnic = conn.qp.context.engine
    if not isinstance(rnic, RNIC):
        return None
    try:
        plan = Plan([(conn, depth, lambda symbol: targets, None)],
                    limit=depth + count)
        try:
            cut = plan.advance(_INF, count, exact=True)
            plan.commit(cut, exact=True)
        except Declined:
            plan.restore()
            raise
    except Declined as declined:
        count_fallback(rnic.counters, declined.reason)
        return None
    rnic.counters.closed_loop_runs += 1
    flow = plan.flows[0]
    post, comps = flow.post, flow.comps
    return [(comps[k] - post[k]) / (k + 1 if k < depth else depth)
            for k in range(count)]


class _Flow:
    """One closed-loop reader's shadow: its requester's four stations,
    the event times of its reads, and where its recurrence stands."""

    __slots__ = (
        "conn", "qp", "rnic", "depth", "limit", "init", "symbols", "symbol",
        "flips", "flip_at", "tables", "table", "geo", "index", "moves",
        "proof", "local_addr", "responder", "rp_inf", "rw_inf",
        "fetch_eff", "t_eff", "wire_eff", "x_eff", "c_eff", "rt_req",
        "doorbell", "transit_req", "transit_resp", "req_bytes", "tc",
        "p_busy", "p_bns", "p_wns", "t_busy", "t_bns", "t_wns",
        "w_busy", "w_bns", "w_wns", "x_busy", "x_bns", "x_wns",
        "fetched", "n_tx", "n_wire", "n_rx", "rx_bytes", "n_rrx", "n_data",
        "n_rwire", "rwire_bytes", "post", "fetch_at", "txpu_at", "wire_at",
        "tg", "comps", "rq", "wb", "k", "arrival",
    )

    def __init__(self, conn: "RDMAConnection", depth: int,
                 symbols: Callable, responder: RNIC, limit: int, init: int,
                 now: float) -> None:
        qp = conn.qp
        rnic = qp.context.engine
        spec = rnic.spec
        self.conn, self.qp, self.rnic, self.responder = conn, qp, rnic, responder
        self.depth, self.limit, self.init = depth, limit, init
        self.symbols, self.symbol = symbols, 0
        self.flips: list = []
        self.flip_at = 0
        self.tables: dict = {}
        self.geo: list = []           # per target: its responder-side constants
        self.index: dict = {}         # (rkey, offset, size) -> geo index
        self.moves: list = []         # per target: its data movement
        self.proof = RemoteProof(qp.remote_qp.context, qp.context.memory)
        self.local_addr = conn.local_mr.addr
        self.rp_inf = responder.pcie.inflation
        self.rw_inf = responder.wire_tx.inflation
        self.table = self.table_for(0)
        # READ requests carry no payload: every target's request side is
        # the same
        fetch, self.req_bytes, req_wire, _, _, _, _ = rnic.geometry(
            _READ, self.geo[self.table[0]][2], responder)
        self.p_busy, p_inf, self.p_bns, self.p_wns = rnic.pcie.batch_state()
        self.t_busy, t_inf, self.t_bns, self.t_wns = rnic.txpu.batch_state()
        self.w_busy, w_inf, self.w_bns, self.w_wns = rnic.wire_tx.batch_state()
        self.x_busy, x_inf, self.x_bns, self.x_wns = rnic.rxpu.batch_state()
        self.fetch_eff = fetch * p_inf
        self.wire_eff = req_wire * w_inf
        self.t_eff = spec.txpu_ns * t_inf
        self.x_eff = spec.rxpu_ns * x_inf
        self.c_eff = spec.cqe_write_ns * p_inf
        self.rt_req = spec.pcie.tlp_latency_ns * (
            1.0 + rnic.pcie.background_utilization)
        self.doorbell = spec.doorbell_ns
        self.transit_req = rnic._transit_ns(responder)
        self.transit_resp = responder._transit_ns(rnic)
        self.tc = qp.traffic_class
        self.fetched = self.n_tx = self.n_wire = self.n_rx = 0
        self.rx_bytes = self.n_rrx = self.n_data = 0
        self.n_rwire = self.rwire_bytes = 0
        self.post = [now] * depth          # post times, grown per completion
        self.fetch_at = [now + self.doorbell] * depth  # fetch event times
        self.txpu_at: list = []            # TxPU event times, per fetched read
        self.wire_at: list = []            # wire-out event times
        self.tg: list = []                 # geo index, per merged read
        self.comps: list = []              # completion times
        self.rq: list = []                 # requester-Rx times, completed reads
        self.wb: list = []                 # responder wire-out times, likewise
        self.k = 0                         # the next read to reach the responder
        self.arrival: Optional[float] = None   # its responder-Rx time

    def table_for(self, symbol) -> list:
        """The geo indices of ``symbols(symbol)``, proving each target
        (:class:`~repro.rnic.batch.RemoteProof`) as it first appears."""
        table = self.tables.get(symbol)
        if table is None:
            table = []
            for target in self.symbols(symbol):
                mr, size = target.mr, target.size
                key = (mr.rkey, target.offset, size)
                index = self.index.get(key)
                if index is None:
                    remote_addr = mr.addr + target.offset
                    base = self.proof.base(_READ, mr.rkey, remote_addr, size,
                                           self.local_addr)
                    _, _, _, resp_nbytes, resp_wire, data, _ = \
                        self.rnic.geometry(_READ, size, self.responder)
                    data_eff = data * self.rp_inf
                    rwire_eff = resp_wire * self.rw_inf
                    if data_eff <= 0.0 or rwire_eff <= 0.0:
                        raise Declined("order")
                    index = self.index[key] = len(self.geo)
                    self.geo.append((mr.rkey, remote_addr - base, size,
                                     data_eff, rwire_eff, resp_nbytes))
                    self.moves.append(types.SimpleNamespace(
                        opcode=_READ, local_addr=self.local_addr,
                        remote_addr=remote_addr, length=size))
                table.append(index)
            self.tables[symbol] = table
        return table

    def resolve(self, j: int) -> int:
        """Read ``j``'s target (called in post order): the symbol's
        target set at its post time, cycled by post count."""
        flips = self.flips
        if flips:
            at = self.post[j]
            i = self.flip_at
            while i < len(flips) and flips[i][0] < at:
                self.symbol = flips[i][1]
                self.table = self.table_for(self.symbol)
                i += 1
            if i < len(flips) and flips[i][0] == at:
                raise Declined("tie")
            self.flip_at = i
        table = self.table
        index = table[j % len(table)]
        self.tg.append(index)
        return index

    def horizon(self) -> float:
        """The latest event the recurrence has fired."""
        return max(self.fetch_at[self.fetched - 1] if self.fetched else -_INF,
                   self.wire_at[-1] if self.wire_at else -_INF,
                   self.comps[-1] if self.comps else -_INF)


def _origin(flow: _Flow, j: int) -> tuple:
    """Where read ``j``'s post stands in the kernel's event order: the
    posts that fill the queue in start order, each later one by the
    completion that made it (time, then the times of the events that
    scheduled that completion)."""
    i = j - flow.depth
    if i < 0:
        return (-_INF, flow.init + j)
    return (flow.post[j], flow.rq[i], flow.wb[i])


def _arrival_key(flow: _Flow) -> tuple:
    """The kernel's order of ``flow``'s next responder-Rx event among
    events at the same time: by the times of the events that scheduled
    it, back to where two readers' chains part."""
    k = flow.k
    return (flow.wire_at[k], flow.txpu_at[k], flow.fetch_at[k]) + \
        _origin(flow, k)


def _posts_before(other: _Flow, flow: _Flow, j: int) -> int:
    """How many of ``other``'s posts the kernel makes before ``flow``'s
    post ``j``."""
    at = flow.post[j]
    posts = other.post
    n = bisect.bisect_left(posts, at)
    origin = _origin(flow, j)
    while n < len(posts) and posts[n] == at and _origin(other, n) < origin:
        n += 1
    return n


class Plan:
    """A closed-loop run of RDMA Read readers as one merged recurrence.

    See the module docstring.  ``readers`` are ``(conn, depth,
    symbols, hook)``: the connection, the queue depth,
    ``symbols(symbol)`` giving the reader's target set for a symbol
    (the sender's covert bit; readers with one target set ignore it),
    and the ``on_completion`` hook the reader's CQ carries (``None`` for
    none).  A reader posts at most ``limit`` reads.  The constructor
    raises :class:`~repro.rnic.batch.Declined` on a failed guard."""

    def __init__(self, readers: Sequence[tuple],
                 limit: int = sys.maxsize) -> None:
        if not batch.FAST_PATH_ENABLED:
            raise Declined("disabled")
        flows = []
        responder = None
        init = 0
        for conn, depth, symbols, hook in readers:
            qp = conn.qp
            rnic = qp.context.engine
            server = path_guard(rnic, qp)
            if responder is None:
                responder = server
            elif server is not responder:
                raise Declined("responder")
            if qp.outstanding_send:
                raise Declined("not_quiescent")
            if qp.destroyed or qp.state is not QPState.RTS:
                raise Declined("qp_state")
            if server.spec.ddio_enabled:
                raise Declined("ddio")
            cq = qp.send_cq
            if not cq.free_space:
                raise Declined("cq_space")
            if len(cq) or cq.on_completion != hook:
                raise Declined("cq_in_use")
            flows.append(_Flow(conn, depth, symbols, responder, limit, init,
                               rnic.sim.now))
            init += depth
        rspec = responder.spec
        if (len({id(flow.rnic) for flow in flows}) != len(flows)
                or min(rspec.rxpu_ns, rspec.txpu_ns, rspec.tpu_base_ns) <= 0.0):
            raise Declined("order")
        self.flows = flows
        self.responder = responder
        self.sim = responder.sim
        self.start = self.sim.now
        translation = responder.translation
        self.admit = translation.admit
        rr_busy, rr_inf, rr_bns, rr_wns = responder.rxpu.batch_state()
        rp_busy, _, rp_bns, rp_wns = responder.pcie.batch_state()
        rt_busy, rt_inf, rt_bns, rt_wns = responder.txpu.batch_state()
        rw_busy, _, rw_bns, rw_wns = responder.wire_tx.batch_state()
        self.server = [rr_busy, rr_bns, rr_wns, rp_busy, rp_bns, rp_wns,
                       rt_busy, rt_bns, rt_wns, rw_busy, rw_bns, rw_wns,
                       0, 0, 0, 0]
        self.rr_eff = rspec.rxpu_ns * rr_inf
        self.rt_eff = rspec.txpu_ns * rt_inf
        self.rt_resp = rspec.pcie.tlp_latency_ns * (
            1.0 + responder.pcie.background_utilization)
        self.pending: list = []   # (time, flow, read, stage), reads in flight
        self.checkpoint = translation.checkpoint()
        for flow in flows:
            self._outbound(flow, _INF)

    def restore(self) -> None:
        """Undo the plan's translation-unit admissions (after a decline)."""
        self.responder.translation.restore(self.checkpoint)

    def _quiescent(self) -> None:
        """A held session plan resumes only on the simulator it left."""
        sim = self.sim
        if sim.pending or sim.now > self.start:
            raise Declined("not_quiescent")

    # ------------------------------------------------------------------
    # A lockstep session: warm-up, then the frame
    # ------------------------------------------------------------------
    def warm_up(self, count: int) -> float:
        """Plan to the first reader's ``count``-th completion; return
        its time.

        Each reader's completions before that cut ``T`` are final
        (:attr:`published`); nothing is committed.  Raises
        :class:`~repro.rnic.batch.Declined`, the plan then dead."""
        self._quiescent()
        cut = self.advance(_INF, count, exact=False) if count > 0 \
            else self.start
        published = [count]
        for flow in self.flows[1:]:
            n = bisect.bisect_left(flow.comps, cut)
            if n < len(flow.comps) and flow.comps[n] == cut:
                raise Declined("tie")
            published.append(n)
        self.published = published
        return cut

    def finish(self, until: float, flips: dict) -> None:
        """Run the readers to ``until``, then commit the plan.

        As ``Simulator.run(until=)`` would, flow ``i``'s symbol
        switching at ``flips[i]``'s ``(time, symbol)`` pairs; the clock
        is left at ``until`` and the reads in flight on the scalar
        pipeline.  Raises :class:`~repro.rnic.batch.Declined`, the plan
        then dead."""
        self._quiescent()
        bound = math.nextafter(until, _INF)
        if max(flow.horizon() for flow in self.flows) >= bound:
            raise Declined("horizon")
        for index, schedule in flips.items():
            self.flows[index].flips = schedule
        self.advance(bound)
        self.commit(until, exact=False)

    # ------------------------------------------------------------------
    # The recurrence
    # ------------------------------------------------------------------
    def _outbound(self, flow: _Flow, bound: float) -> None:
        """Take the flow's next read up to its arrival at the responder.

        The fetches of the reads up to it (every one fires before its
        requester-Rx event), its TxPU and wire.  A read whose next event
        is at or past ``bound`` pends there, and so do the reads after
        it; :attr:`_Flow.arrival` stays ``None`` if none arrives."""
        post, fetch_at, txpu_at = flow.post, flow.fetch_at, flow.txpu_at
        wire_at, pending = flow.wire_at, self.pending
        p_busy, p_bns, p_wns = flow.p_busy, flow.p_bns, flow.p_wns
        t_busy, t_bns, t_wns = flow.t_busy, flow.t_bns, flow.t_wns
        w_busy, w_bns, w_wns = flow.w_busy, flow.w_bns, flow.w_wns
        fetch_eff, rt_req, t_eff = flow.fetch_eff, flow.rt_req, flow.t_eff
        wire_eff, transit = flow.wire_eff, flow.transit_req
        fetched, n_tx, n_wire = flow.fetched, flow.n_tx, flow.n_wire
        k = flow.k
        arrival = None
        while k < len(post):
            while fetched <= k:
                f = fetch_at[fetched]
                if f >= bound:
                    break
                s = f if f > p_busy else p_busy
                p_busy = s + fetch_eff
                p_bns += fetch_eff
                p_wns += s - f
                txpu_at.append(p_busy + rt_req)
                fetched += 1
            if fetched <= k:
                break  # read k onwards still wait for their fetch
            a = txpu_at[k]
            if a >= bound:
                pending.append((a, flow, k, "txpu"))
                k += 1
                continue
            s = a if a > t_busy else t_busy
            t_busy = s + t_eff
            t_bns += t_eff
            t_wns += s - a
            n_tx += 1
            a = t_busy
            wire_at.append(a)
            if a >= bound:
                pending.append((a, flow, k, "wire_out"))
                k += 1
                continue
            s = a if a > w_busy else w_busy
            w_busy = s + wire_eff
            w_bns += wire_eff
            w_wns += s - a
            n_wire += 1
            a = w_busy + transit
            if a >= bound:
                pending.append((a, flow, k, "responder_rx"))
                k += 1
                continue
            arrival = a
            break
        flow.p_busy, flow.p_bns, flow.p_wns = p_busy, p_bns, p_wns
        flow.t_busy, flow.t_bns, flow.t_wns = t_busy, t_bns, t_wns
        flow.w_busy, flow.w_bns, flow.w_wns = w_busy, w_bns, w_wns
        flow.fetched, flow.n_tx, flow.n_wire = fetched, n_tx, n_wire
        flow.k = k
        flow.arrival = arrival

    def advance(self, bound: float, count: int = 0,
                exact: bool = True) -> float:
        """Merge the readers' reads at the responder until ``bound``.

        Each read goes through the shared stations in event order and
        back to its completion, until no read arrives before ``bound``.
        With ``count``, the first reader's ``count``-th completion is
        the cut: ``exact`` makes it the bound (a one-reader probe),
        otherwise the merge stops once no read arrives before it.
        Returns the cut (``bound`` without ``count``)."""
        flows = self.flows
        single = flows[0] if len(flows) == 1 else None
        counted = flows[0] if count else None
        (rr_busy, rr_bns, rr_wns, rp_busy, rp_bns, rp_wns, rt_busy, rt_bns,
         rt_wns, rw_busy, rw_bns, rw_wns, n_rrx, n_data, n_rt,
         n_rwire) = self.server
        rr_eff, rt_eff, rt_resp = self.rr_eff, self.rt_eff, self.rt_resp
        admit = self.admit
        pending = self.pending
        cut = bound
        stop = _INF
        while True:
            # (1) the earliest next arrival at the responder
            if single is not None:
                flow, a = single, single.arrival
            else:
                flow = a = None
                for other in flows:
                    b = other.arrival
                    if b is not None and (
                            flow is None or b < a or b == a
                            and _arrival_key(other) < _arrival_key(flow)):
                        flow, a = other, b
            if a is None or a > stop:
                break
            k = flow.k
            if a >= bound:  # a warm-up's next read, resumed under a bound
                pending.append((a, flow, k, "responder_rx"))
                flow.k = k + 1
                self._outbound(flow, bound)
                continue
            if flow.flips:
                tg = flow.resolve(k)
            else:
                table = flow.table
                tg = table[k % len(table)]
                flow.tg.append(tg)
            rkey, offset, size, data_eff, rwire_eff, resp_bytes = flow.geo[tg]
            # (2) the responder's stations; the first event at or past
            # the bound is where the read resumes
            s = a if a > rr_busy else rr_busy
            rr_busy = s + rr_eff
            rr_bns += rr_eff
            rr_wns += s - a
            n_rrx += 1
            flow.n_rrx += 1
            stage = None
            while True:
                a = rr_busy
                if a >= bound:
                    stage = "translate"
                    break
                a = admit(a, rkey, offset, size)[0]
                if a >= bound:
                    stage = "data"
                    break
                s = a if a > rp_busy else rp_busy
                rp_busy = s + data_eff
                rp_bns += data_eff
                rp_wns += s - a
                n_data += 1
                flow.n_data += 1
                a = rp_busy + rt_resp
                if a >= bound:
                    stage = "response"
                    break
                s = a if a > rt_busy else rt_busy
                rt_busy = s + rt_eff
                rt_bns += rt_eff
                rt_wns += s - a
                n_rt += 1
                wb = a = rt_busy
                if a >= bound:
                    stage = "wire_back"
                    break
                s = a if a > rw_busy else rw_busy
                rw_busy = s + rwire_eff
                rw_bns += rwire_eff
                rw_wns += s - a
                n_rwire += 1
                flow.n_rwire += 1
                flow.rwire_bytes += resp_bytes
                a = rw_busy + flow.transit_resp
                if a >= bound:
                    stage = "requester_rx"
                break
            if stage is not None:
                pending.append((a, flow, k, stage))
                flow.k = k + 1
                self._outbound(flow, bound)
                continue
            # (3) the fetches that fire before read k's requester-Rx
            # event take the PCIe engine first
            post, fetch_at, txpu_at = flow.post, flow.fetch_at, flow.txpu_at
            p_busy, p_bns, p_wns = flow.p_busy, flow.p_bns, flow.p_wns
            fetch_eff, rt_req = flow.fetch_eff, flow.rt_req
            fetched = flow.fetched
            posted = len(post)
            while fetched < posted:
                f = fetch_at[fetched]
                if f > a:
                    break
                if f == a:
                    raise Declined("tie")
                s = f if f > p_busy else p_busy
                p_busy = s + fetch_eff
                p_bns += fetch_eff
                p_wns += s - f
                txpu_at.append(p_busy + rt_req)
                fetched += 1
            flow.fetched = fetched
            # (4) requester RxPU, then the CQE write
            flow.rx_bytes += resp_bytes
            x_busy, x_eff, c_eff = flow.x_busy, flow.x_eff, flow.c_eff
            s = a if a > x_busy else x_busy
            x_busy = s + x_eff
            flow.x_bns += x_eff
            flow.x_wns += s - a
            flow.x_busy = x_busy
            flow.n_rx += 1
            s = x_busy if x_busy > p_busy else p_busy
            p_busy = s + c_eff
            p_bns += c_eff
            p_wns += s - x_busy
            flow.p_busy, flow.p_bns, flow.p_wns = p_busy, p_bns, p_wns
            if p_busy >= bound:
                pending.append((p_busy, flow, k, "complete"))
            else:
                comps = flow.comps
                comps.append(p_busy)
                flow.rq.append(a)
                flow.wb.append(wb)
                if posted < flow.limit:
                    post.append(p_busy)
                    fetch_at.append(p_busy + flow.doorbell)
                if flow is counted and len(comps) == count:
                    cut = p_busy
                    if exact:
                        bound = p_busy
                    else:
                        stop = p_busy
            flow.k = k + 1
            self._outbound(flow, bound)
        self.server = [rr_busy, rr_bns, rr_wns, rp_busy, rp_bns, rp_wns,
                       rt_busy, rt_bns, rt_wns, rw_busy, rw_bns, rw_wns,
                       n_rrx, n_data, n_rt, n_rwire]
        return cut

    # ------------------------------------------------------------------
    # The commit
    # ------------------------------------------------------------------
    def commit(self, cut: float, exact: bool) -> None:
        """Write the plan back and launch its reads still in flight.

        Stations, counters, memory, WQEs and QP/CQ bookkeeping; the
        clock to ``cut`` — right after the completion at ``cut``
        (``exact``) or as ``run(until=cut)`` leaves it — and the reads
        in flight onto the scalar pipeline."""
        flows = self.flows
        pending = self.pending
        for flow in flows:
            fetch_at = flow.fetch_at
            last = len(flow.post) - 1
            for j in range(flow.fetched, last + 1):
                pending.append((fetch_at[j], flow, j, "fetch"))
            for j in range(len(flow.tg), last + 1):
                flow.resolve(j)
        if exact:
            # the read posted at T fetches after T's completion event
            for at, flow, j, stage in pending:
                if at == cut and (stage != "fetch"
                                  or j != len(flow.post) - 1):
                    raise Declined("tie")
        if len({entry[0] for entry in pending}) != len(pending):
            raise Declined("tie")
        # the in-flight reads in the kernel's post order, for the WQE
        # sequence numbers
        inflight = sorted(
            (j + sum(_posts_before(other, flow, j) for other in flows
                     if other is not flow), flow, j)
            for flow in flows for j in range(len(flow.comps), len(flow.post)))

        # --------------------------------------------------------------
        # Commit point — mutations from here on, no fallback
        # --------------------------------------------------------------
        responder = self.responder
        (rr_busy, rr_bns, rr_wns, rp_busy, rp_bns, rp_wns, rt_busy, rt_bns,
         rt_wns, rw_busy, rw_bns, rw_wns, n_rrx, n_data, n_rt,
         n_rwire) = self.server
        responder.rxpu.batch_commit(rr_busy, rr_bns, rr_wns, n_rrx)
        responder.pcie.batch_commit(rp_busy, rp_bns, rp_wns, n_data)
        responder.txpu.batch_commit(rt_busy, rt_bns, rt_wns, n_rt)
        responder.wire_tx.batch_commit(rw_busy, rw_bns, rw_wns, n_rwire)
        first_ids = {}
        for flow in flows:
            rnic = flow.rnic
            rnic.pcie.batch_commit(flow.p_busy, flow.p_bns, flow.p_wns,
                                   flow.fetched + flow.n_rx)
            rnic.txpu.batch_commit(flow.t_busy, flow.t_bns, flow.t_wns,
                                   flow.n_tx)
            rnic.wire_tx.batch_commit(flow.w_busy, flow.w_bns, flow.w_wns,
                                      flow.n_wire)
            rnic.rxpu.batch_commit(flow.x_busy, flow.x_bns, flow.x_wns,
                                   flow.n_rx)
            tc, n_wire = flow.tc, flow.n_wire
            rnic.counters.record_tx_bulk(flow.req_bytes * n_wire, n_wire,
                                         tc=tc,
                                         opcodes=itertools.repeat(_READ,
                                                                  n_wire))
            responder.counters.record_rx_bulk(flow.req_bytes * flow.n_rrx,
                                              flow.n_rrx, tc=tc)
            responder.counters.record_tx_bulk(flow.rwire_bytes, flow.n_rwire,
                                              tc=tc)
            rnic.counters.record_rx_bulk(flow.rx_bytes, flow.n_rx, tc=tc)
            # Every read lands in the reader's one local buffer from
            # unchanging remote bytes, so the last data stage of each
            # target decides its contents: replaying those in order is
            # exact.
            qp = flow.qp
            local_mem = qp.context.memory
            remote_mem = qp.remote_qp.context.memory
            last: dict = {}
            for j in range(flow.n_data - 1, -1, -1):
                last.setdefault(flow.tg[j], j)
                if len(last) == len(flow.geo):
                    break
            for j in sorted(last.values()):
                move_one_sided(local_mem, remote_mem, flow.moves[flow.tg[j]])
            first_ids[flow] = flow.conn.claim_wr_ids(len(flow.post))

        # the WQEs: consumed reads only advance the sequence numbers, the
        # reads in flight are built as the readers' posts would build them
        wrs: dict = {flow: [] for flow in flows}
        consumed = 0
        for rank, flow, j in inflight:
            skip_wqe_seqs(rank - consumed)
            consumed = rank + 1
            rkey, _, size, _, _, _ = flow.geo[flow.tg[j]]
            wr = make_read_wr(flow.local_addr, size,
                              flow.moves[flow.tg[j]].remote_addr, rkey,
                              first_ids[flow] + j)
            wr.post_time = flow.post[j]
            wr.queue_ahead = j if j < flow.depth else flow.depth - 1
            wrs[flow].append(wr)
        skip_wqe_seqs(sum(len(flow.post) for flow in flows) - consumed)
        for flow in flows:
            sizes = Counter(flow.geo[tg][2] for tg in flow.tg)
            flow.qp.account_closed_loop(sizes, len(flow.comps), wrs[flow])

        # the clock stops at the cut; then each read in flight resumes on
        # the scalar pipeline at its next stage
        sim = self.sim
        if exact:
            sim.schedule_at(cut, _completion)
            sim.step()
        else:
            sim.run(until=cut)
        success = WCStatus.SUCCESS
        for time, flow, j, stage in sorted(pending, key=itemgetter(0)):
            flow.rnic.launch(flow.qp, wrs[flow][j - len(flow.comps)], stage,
                             time, status=success
                             if STAGES.index(stage) >= _PAST_DATA else None)


def _completion() -> None:
    """Stands in for the consumed completion at T (advances the clock)."""
