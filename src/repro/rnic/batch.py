"""Batched message-descriptor fast path for :class:`repro.rnic.rnic.RNIC`.

``RNIC.post_send_batch`` historically expanded into one scalar flight
per message: ten scheduled events per WQE, each touching one
:class:`~repro.rnic.station.ServiceStation`.  For the barrier-shaped
workloads that dominate the end-to-end benchmarks (post a cohort, drain
it, repeat), every one of those events is *predictable at post time*:
with no loss, no faults and no competing traffic, each pipeline stage is
a FIFO recurrence over the cohort, so the whole flight plan can be
computed up front and the kernel only has to dispatch the final
completion events.

The planner below (:func:`try_fast_path`) does exactly that:

1. prove eligibility without mutating anything (quiescent simulator, RC
   one-sided cohort, lossless/fault-free path, every WQE prechecked to
   complete ``SUCCESS``), building the per-WQE geometry lists on the
   way;
2. replay the requester-side stages on *shadow* station state as two
   plain-float loops: the PCIe WQE fetch, then TxPU -> wire ->
   responder RxPU fused into one pass;
3. commit: sequential TPU admits (the one history-coupled stage), then
   one loop for the responder's data stage (data movement, DDIO draws,
   PCIe DMA) and one fused loop for the way back (responder TxPU ->
   wire -> requester RxPU -> CQE write), station/counter bulk updates,
   and a self-rescheduling drainer that delivers each CQE at its exact
   scalar-path timestamp.

Everything the scalar path would have computed — station horizons,
``busy_ns``/``wait_ns`` accumulators, translation history and caches,
RNG streams, counters, CQE payloads and order — is bit-identical.  Each
loop replays :meth:`~repro.rnic.station.ServiceStation.admit`'s
recurrence with its IEEE-754 operation order, and each station keeps
its own left-fold accumulators.  Fusing stations into one loop is exact
because the fused stations share one admission order: the per-message
extras that can reorder messages (the fetch round trip, the data-stage
round trip) sit between the loops, and stable sorts by arrival
re-derive the scalar event order there.  Anything the planner cannot
prove — loss or fault processes, UD/UC transports, SENDs,
observability hooks, a non-quiescent simulator, a WQE that would not
complete ``SUCCESS`` — declines before the commit point with a reason
code (:data:`FALLBACK_REASONS`, counted on the requester's
:class:`~repro.rnic.counters.NICCounters`), and the caller falls back
to the scalar per-message pipeline, one flight per WQE.

Contract note: the plan commits future station occupancy at post time.
Posting *more* work before the cohort drains is causally fine (later
arrivals queue behind the committed horizons) but is outside the
byte-identity guarantee, which covers the barrier shape the equivalence
suite pins: post cohort, run to drain, repeat.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.verbs.engine import move_one_sided
from repro.verbs.enums import REQUIRED_REMOTE_ACCESS, AccessFlags, WCStatus
from repro.verbs.errors import RemoteAccessError

if TYPE_CHECKING:  # pragma: no cover
    from repro.rnic.rnic import RNIC
    from repro.verbs.qp import QueuePair
    from repro.verbs.wr import SendWR

__all__ = ["MIN_BATCH", "FAST_PATH_ENABLED", "FALLBACK_REASONS",
           "Declined", "RemoteProof", "path_guard", "count_fallback",
           "try_fast_path"]

#: Cohorts below this size take the scalar path: the planner's fixed
#: overhead (eligibility proof + stage loops) only amortizes across a
#: real batch.
MIN_BATCH = 2

#: Kill switch (``REPRO_RNIC_BATCH=0``) for both planners, this one and
#: the closed-loop probe planner (:mod:`repro.rnic.closed_loop`).
#: Defaults on — the planners are bit-identical where they engage and
#: fall back everywhere else — but experiments that want the scalar
#: event stream for tracing can opt out without code changes.  Tests
#: monkeypatch this module global.
FAST_PATH_ENABLED = os.environ.get(
    "REPRO_RNIC_BATCH", "1"
).strip().lower() not in ("0", "false", "off")

#: Why a cohort or a probe run took the scalar path, in the order the
#: planners check (the closed-loop-only reasons are marked).
FALLBACK_REASONS = (
    "disabled",        # REPRO_RNIC_BATCH=0
    "small",           # fewer than MIN_BATCH WQEs
    "not_quiescent",   # events pending, or (closed loop) WQEs outstanding
    "hooks",           # dispatch hooks or the determinism digest
    "obs",             # an obs tracer on either NIC
    "transport",       # not a reliable (acknowledged) transport
    "unconnected",     # no remote QP
    "responder",       # loopback, or a remote engine that is no RNIC
    "lossy",           # link loss or fault processes on the path
    "cq_destroyed",    # the send CQ is gone
    "qp_state",        # closed loop: QP destroyed or not RTS (posts raise)
    "ddio",            # closed loop: DDIO draws can reorder responses
    "wqe_kind",        # a SEND, a UD address handle or a flushed WQE
    "access",          # an MR lacks the access an opcode needs
    "rkey",            # an unknown or deregistered rkey
    "remote_bounds",   # a remote range outside its MR
    "local_bounds",    # a local buffer outside host memory
    "cq_space",        # more signaled WQEs than free CQ entries
    "cq_in_use",       # closed loop: stale CQEs or an on_completion hook
    "pcie_hazard",     # a CQE write could precede the last WQE fetch
    "tie",             # closed loop: an exact event-time tie it cannot order
)


class Declined(Exception):
    """A planner guard failed; :attr:`reason` is the
    :data:`FALLBACK_REASONS` entry.  Raised before anything is
    committed, so the caller's scalar path starts from untouched state."""

    @property
    def reason(self) -> str:
        return self.args[0]


def count_fallback(counters, reason: str) -> None:
    """Tally one scalar-path fallback on the requester's counters."""
    fallbacks = counters.batch_fallbacks
    fallbacks[reason] = fallbacks.get(reason, 0) + 1


def path_guard(rnic: "RNIC", qp: "QueuePair") -> "RNIC":
    """The path-level half of both planners' contract; returns the
    responder RNIC or raises :class:`Declined`.

    Quiescence: in-flight events could interleave with the planned
    admits, and a plan replays *global* per-station event order.
    Observability pins the scalar event stream (tracer spans, digest
    hooks fire per dispatched event).  RC only: unreliable transports
    complete at send time (different CQE timing).  Lossless,
    fault-free path both ways: loss reroutes through the retry
    machinery and fault processes make transit time-dependent.
    """
    sim = rnic.sim
    if sim.pending != 0:
        raise Declined("not_quiescent")
    if sim._dispatch_hooks or sim._digest_hook is not None:
        raise Declined("hooks")
    if rnic._obs is not None:
        raise Declined("obs")
    if not qp.qp_type.acks_requests:
        raise Declined("transport")
    remote_qp = qp.remote_qp
    if remote_qp is None:
        raise Declined("unconnected")
    from repro.rnic.rnic import RNIC as _RNIC  # rnic.py imports us

    responder = remote_qp.context.engine
    if responder is rnic or not isinstance(responder, _RNIC):
        raise Declined("responder")
    if responder._obs is not None:
        raise Declined("obs")
    net = rnic.network
    if net is not None:
        if net.has_faults or net.loss_probability(rnic, responder) > 0.0 \
                or net.loss_probability(responder, rnic) > 0.0:
            raise Declined("lossy")
    rnet = responder.network
    if rnet is not None and rnet is not net and rnet.has_faults:
        raise Declined("lossy")
    if qp.send_cq.destroyed:
        raise Declined("cq_destroyed")
    return responder


class RemoteProof:
    """The per-WQE remote-MR proof both planners share: the fused twin
    of :func:`repro.verbs.engine.precheck_one_sided` (MR lookup and
    liveness, access flags, bounds) plus the local-buffer bounds the
    data stage would otherwise raise on.  MR lookups are memoized per
    rkey, and access flags are checked once per (MR, opcode) pair as
    either side first appears; bounds are two comparisons per WQE.  The
    equivalence suite asserts it agrees with ``precheck_one_sided``;
    any would-be non-``SUCCESS`` answer declines, so error CQEs stay
    the scalar pipeline's."""

    __slots__ = ("_mr_by_rkey", "_bounds", "_required", "_lm_base",
                 "_lm_end")

    def __init__(self, remote_ctx, local_mem) -> None:
        self._mr_by_rkey = remote_ctx.mr_by_rkey
        self._bounds: dict = {}       # rkey -> (addr, end, access)
        self._required: dict = {}     # opcode -> required access flags
        self._lm_base = local_mem.base
        self._lm_end = local_mem.end

    def base(self, opcode, rkey, remote_addr: int, length: int,
             local_addr: int) -> int:
        """The MR base address of a WQE proven to complete ``SUCCESS``;
        raises :class:`Declined` otherwise."""
        required = self._required.get(opcode)
        if required is None:
            required = self._required[opcode] = REQUIRED_REMOTE_ACCESS.get(
                opcode, AccessFlags.NONE)
            # new opcode: check its flags against every MR seen
            for _, _, access in self._bounds.values():
                if required and not (access & required):
                    raise Declined("access")
        bounds = self._bounds.get(rkey)
        if bounds is None:
            try:
                mr = self._mr_by_rkey(rkey)
            except RemoteAccessError:
                raise Declined("rkey") from None
            access = mr.access
            # new MR: check its flags against every opcode seen
            for needed in self._required.values():
                if needed and not (access & needed):
                    raise Declined("access")
            bounds = self._bounds[rkey] = (mr.addr, mr.end, access)
        addr = bounds[0]
        if remote_addr < addr or remote_addr + length > bounds[1]:
            raise Declined("remote_bounds")
        # a local-buffer fault would raise out of the data stage
        if local_addr < self._lm_base or local_addr + length > self._lm_end:
            raise Declined("local_bounds")
        return addr


def try_fast_path(rnic: "RNIC", qp: "QueuePair", wrs: "list[SendWR]") -> bool:
    """Plan and commit a descriptor cohort; ``False`` means "take the
    scalar path" and guarantees nothing was mutated beyond the
    requester's path counters."""
    reason = _plan(rnic, qp, wrs)
    if reason is None:
        rnic.counters.batch_fast_cohorts += 1
        return True
    count_fallback(rnic.counters, reason)
    return False


def _plan(rnic: "RNIC", qp: "QueuePair", wrs: "list[SendWR]") -> Optional[str]:
    """The planner: ``None`` once the cohort is committed, else the
    :data:`FALLBACK_REASONS` entry that declined it (nothing mutated)."""
    if not FAST_PATH_ENABLED:
        return "disabled"
    n = len(wrs)
    if n < MIN_BATCH:
        return "small"
    try:
        responder = path_guard(rnic, qp)
        plan = _cohort_geometry(rnic, qp, responder, wrs)
    except Declined as declined:
        return declined.reason
    geos, offsets, sizes, fetch_extra, same_rkey, req_total, resp_total = plan
    sim = rnic.sim
    spec = rnic.spec
    rspec = responder.spec
    remote_ctx = qp.remote_qp.context
    local_mem = qp.context.memory
    success = WCStatus.SUCCESS
    # Shadow station state: (busy_until, inflation, busy_ns, wait_ns).
    p_busy, p_inf, p_bns, p_wns = rnic.pcie.batch_state()

    # ------------------------------------------------------------------
    # Requester-side stages on shadow station state
    # ------------------------------------------------------------------
    # Every loop below is ServiceStation.admit inlined, per station:
    #     start = a if a > busy else busy;  busy = start + effective
    #     busy_ns += effective;  wait_ns += start - a
    # and a message's next arrival is ``busy + extra`` where the scalar
    # path adds an extra (stations it chains with no delay pass the
    # finish on as is).
    now = sim.now
    doorbell = spec.doorbell_ns
    arr = [now] * n
    arr[0] = now + doorbell
    if doorbell > 0.0:
        # WQE 0 rings the doorbell and fetches *last*: its event fires
        # doorbell_ns after the zero-delay fetches of WQEs 1..n-1.
        order1 = list(range(1, n))
        order1.append(0)
        last_fetch = now + doorbell
    else:
        order1 = range(n)
        last_fetch = now

    # requester PCIe: WQE fetch (+ TLP round trip unless inline)
    for i in order1:
        a = arr[i]
        e = geos[i][0]
        s = a if a > p_busy else p_busy
        p_busy = s + e
        p_bns += e
        p_wns += s - a
        arr[i] = p_busy + fetch_extra[i]
    order2 = sorted(order1, key=arr.__getitem__)

    # requester TxPU -> wire -> responder RxPU
    t_busy, t_inf, t_bns, t_wns = rnic.txpu.batch_state()
    t_eff = spec.txpu_ns * t_inf
    w_busy, _, w_bns, w_wns = rnic.wire_tx.batch_state()
    transit_req = rnic._transit_ns(responder)
    rr_busy, rr_inf, rr_bns, rr_wns = responder.rxpu.batch_state()
    rr_eff = rspec.rxpu_ns * rr_inf
    for i in order2:
        a = arr[i]
        s = a if a > t_busy else t_busy
        t_busy = s + t_eff
        t_bns += t_eff
        t_wns += s - a
        e = geos[i][2]
        s = t_busy if t_busy > w_busy else w_busy
        w_busy = s + e
        w_bns += e
        w_wns += s - t_busy
        a = w_busy + transit_req
        s = a if a > rr_busy else rr_busy
        rr_busy = s + rr_eff
        rr_bns += rr_eff
        rr_wns += s - a
        arr[i] = rr_busy

    # Hazard gate: the requester PCIe engine serves both WQE fetches and
    # CQE writes.  The plan admits all fetches before all CQE writes,
    # which matches scalar event order only if every response re-entry
    # lands at or after the last fetch event (downstream times only
    # grow, so the translate arrivals are a safe lower bound).  Equal
    # times are fine: the fetch was scheduled first and fires first.
    if min(arr) < last_fetch:
        return "pcie_hazard"

    # ------------------------------------------------------------------
    # Commit point — mutations from here on, no fallback
    # ------------------------------------------------------------------
    wrs = list(wrs)
    for wr in wrs:
        wr.post_time = now
    translation = responder.translation
    if same_rkey:
        finishes = translation.admit_batch(
            [arr[i] for i in order2], wrs[0].rkey,
            [offsets[i] for i in order2], [sizes[i] for i in order2],
        )
    else:
        admit = translation.admit
        finishes = [
            admit(arr[i], wrs[i].rkey, offsets[i], sizes[i])[0]
            for i in order2
        ]

    # responder data stage: the data movement (validated above: bounds,
    # flags, liveness), the PCIe DMA, and for host reads the TLP round
    # trip with its DDIO draw — sequential over order2, so the DDIO
    # stream advances exactly as the scalar path's rng.random() calls
    remote_mem = remote_ctx.memory
    rt_resp = rspec.pcie.tlp_latency_ns * (
        1.0 + responder.pcie.background_utilization
    )
    ddio = rspec.ddio_enabled
    if ddio:
        ddio_random = responder._ddio_rng.random
        hit_rate = rspec.ddio_hit_rate
        saving = rspec.ddio_saving_ns
        penalty = rspec.ddio_miss_penalty_ns
    rp_busy, _, rp_bns, rp_wns = responder.pcie.batch_state()
    for i, a in zip(order2, finishes):
        move_one_sided(local_mem, remote_mem, wrs[i])
        g = geos[i]
        e = g[5]
        s = a if a > rp_busy else rp_busy
        rp_busy = s + e
        rp_bns += e
        rp_wns += s - a
        if g[6]:
            extra = rt_resp
            if ddio:
                if ddio_random() < hit_rate:
                    extra -= saving
                else:
                    extra += penalty
            arr[i] = rp_busy + extra
        else:
            arr[i] = rp_busy
    order3 = sorted(order2, key=arr.__getitem__)

    # responder TxPU -> wire -> requester RxPU -> requester PCIe CQE
    # write (continuing the fetch loop's PCIe shadow: the hazard gate
    # above proved this interleaving)
    rt_busy, rt_inf, rt_bns, rt_wns = responder.txpu.batch_state()
    rt_eff = rspec.txpu_ns * rt_inf
    rw_busy, _, rw_bns, rw_wns = responder.wire_tx.batch_state()
    transit_resp = responder._transit_ns(rnic)
    x_busy, x_inf, x_bns, x_wns = rnic.rxpu.batch_state()
    x_eff = spec.rxpu_ns * x_inf
    c_eff = spec.cqe_write_ns * p_inf
    for i in order3:
        a = arr[i]
        s = a if a > rt_busy else rt_busy
        rt_busy = s + rt_eff
        rt_bns += rt_eff
        rt_wns += s - a
        e = geos[i][4]
        s = rt_busy if rt_busy > rw_busy else rw_busy
        rw_busy = s + e
        rw_bns += e
        rw_wns += s - rt_busy
        a = rw_busy + transit_resp
        s = a if a > x_busy else x_busy
        x_busy = s + x_eff
        x_bns += x_eff
        x_wns += s - a
        s = x_busy if x_busy > p_busy else p_busy
        p_busy = s + c_eff
        p_bns += c_eff
        p_wns += s - x_busy
        arr[i] = p_busy

    rnic.pcie.batch_commit(p_busy, p_bns, p_wns, 2 * n)
    rnic.txpu.batch_commit(t_busy, t_bns, t_wns, n)
    rnic.wire_tx.batch_commit(w_busy, w_bns, w_wns, n)
    rnic.rxpu.batch_commit(x_busy, x_bns, x_wns, n)
    responder.rxpu.batch_commit(rr_busy, rr_bns, rr_wns, n)
    responder.pcie.batch_commit(rp_busy, rp_bns, rp_wns, n)
    responder.txpu.batch_commit(rt_busy, rt_bns, rt_wns, n)
    responder.wire_tx.batch_commit(rw_busy, rw_bns, rw_wns, n)

    tc = qp.traffic_class
    rnic.counters.record_tx_bulk(
        req_total, n, tc=tc, opcodes=[wrs[i].opcode for i in order2]
    )
    responder.counters.record_rx_bulk(req_total, n, tc=tc)
    responder.counters.record_tx_bulk(resp_total, n, tc=tc)
    rnic.counters.record_rx_bulk(resp_total, n, tc=tc)

    # ------------------------------------------------------------------
    # Completion drainer: signaled WQEs get their own event at their
    # scalar CQE timestamp; a run of unsignaled WQEs rides the next
    # signaled event (each still retires with its own timestamp — the
    # states at every CQE delivery, the only points a barrier driver
    # can observe, are unchanged).  A trailing unsignaled run gets one
    # event at the run's final timestamp so the cohort fully drains.
    # complete_send skips WQEs flushed while the cohort was in flight,
    # exactly like the scalar completion stage.
    cqe_times = arr
    schedule_at = sim.schedule_at
    complete = qp.complete_send

    def _deliver(group: list) -> None:
        for k in group:
            complete(wrs[k], success, cqe_times[k])

    run: list = []
    for k in order3:
        if wrs[k].signaled:
            t = cqe_times[k]
            if run:
                run.append(k)
                schedule_at(t, _deliver, run)
                run = []
            else:
                schedule_at(t, complete, wrs[k], success, t)
        else:
            run.append(k)
    if run:
        schedule_at(cqe_times[run[-1]], _deliver, run)
    return None


def _cohort_geometry(rnic: "RNIC", qp: "QueuePair", responder: "RNIC",
              wrs: "list[SendWR]") -> tuple:
    """Per-WQE eligibility and effective service geometry (memoized per
    ``(opcode, length)``); raises :class:`Declined`."""
    # Inflations fold into the per-key effective service times below;
    # the product is the one ServiceStation.admit computes per request.
    p_inf = rnic.pcie.inflation
    w_inf = rnic.wire_tx.inflation
    rw_inf = responder.wire_tx.inflation
    rp_inf = responder.pcie.inflation
    rt_req = rnic.spec.pcie.tlp_latency_ns * (
        1.0 + rnic.pcie.background_utilization)
    proof = RemoteProof(qp.remote_qp.context, qp.context.memory)
    prove = proof.base
    geometry = rnic.geometry
    geo: dict = {}
    geos = []
    offsets = []
    sizes = []
    fetch_extra = []
    geos_append = geos.append
    offsets_append = offsets.append
    sizes_append = sizes.append
    fetch_extra_append = fetch_extra.append
    rkey0 = wrs[0].rkey
    same_rkey = True
    signaled = 0
    req_total = 0
    resp_total = 0
    for wr in wrs:
        op = wr.opcode
        if not op.is_one_sided or wr.ah is not None or wr.flushed:
            raise Declined("wqe_kind")
        length = wr.length
        key = (op, length)
        g = geo.get(key)
        if g is None:
            # (fetch, wire out, wire back, data) effective service
            # times, the byte counts, and whether the data stage waits
            # out a host-read round trip
            fetch, req_nbytes, req_wire, resp_nbytes, resp_wire, data, \
                host_read = geometry(op, length, responder)
            g = geo[key] = (fetch * p_inf, req_nbytes, req_wire * w_inf,
                            resp_nbytes, resp_wire * rw_inf, data * rp_inf,
                            host_read)
        rkey = wr.rkey
        ra = wr.remote_addr
        geos_append(g)
        offsets_append(ra - prove(op, rkey, ra, length, wr.local_addr))
        sizes_append(length)
        fetch_extra_append(0.0 if wr.inline else rt_req)
        if rkey != rkey0:
            same_rkey = False
        if wr.signaled:
            signaled += 1
        req_total += g[1]
        resp_total += g[3]
    if signaled > qp.send_cq.free_space:
        raise Declined("cq_space")
    return geos, offsets, sizes, fetch_extra, same_rkey, req_total, resp_total
