"""Closed-loop planner for the ULI probe (:class:`repro.telemetry.uli.ULIProbe`).

The probe keeps ``depth`` RDMA Reads outstanding on one RC QP and posts
the next read the moment a completion is polled.  On the per-message
pipeline every read is ten scheduled events, the stage methods of
its flight (fetch, TxPU, wire, responder RxPU, translate, data,
response, wire back, requester Rx, complete).  With nothing else
running, every one of those event times follows from the reads
before it, so :func:`try_closed_loop` computes
the whole run as one plain-float per-read recurrence over the nine
station admissions and the translation unit — no heap, no flights —
and leaves the simulator exactly where the scalar loop would have.

The recurrence.  Read ``j`` is posted at ``P_j``: the measure's start
for the ``depth`` reads that fill the queue, read ``j - depth``'s
completion time after that.  Its fetch fires at ``P_j + doorbell``.
Every station except the requester PCIe engine admits reads in post
order: each one is single-server FIFO, reached through FIFO stations
with per-run constant extras (the TLP round trips, the transits), and
equal-time events fire in scheduling order, which is post order too.
So each station is :meth:`~repro.rnic.station.ServiceStation.admit`
inlined on shadow floats, and the translation unit is its own
:meth:`~repro.rnic.translation.TranslationUnit.admit` in post order.

The one merge.  The requester PCIe engine serves two streams: WQE
fetches (admitted at their event time) and CQE writes (admitted by
the requester-Rx event, arriving when the requester RxPU finishes).
Within each stream the order is post order; across streams the engine
admits by event time.  Read ``k``'s requester-Rx event comes after its
own fetch, and every fetch that fires before it was posted by an
earlier completion, so the loop goes read by read: admit the fetches
that fire before read ``k``'s requester-Rx event, then read ``k``'s
CQE write.  An exact fetch/requester-Rx tie would be ordered by
scheduling sequence numbers the recurrence does not model, so it
declines (``tie``).

The cut at T.  ``measure`` returns right after the completion of the
last read it consumes, at time ``T``.  The plan admits only the stage
events that fire before ``T`` — station state, counters, the
translation unit and its RNG, data movement, QP/CQ bookkeeping — and
hands each of the ``depth`` reads still in flight to the unchanged
scalar pipeline (:meth:`repro.rnic.rnic.RNIC.launch`) at its next stage
and exact time.  A stage event at exactly ``T`` (other than the fetch
of the read posted at ``T`` with a zero doorbell, which the scalar loop
schedules after the completion) or two in-flight reads pending at the
same time would again need sequence numbers: ``tie``.  Ties are found
only after the translation unit ran, so the unit is checkpointed first
and restored on a decline; nothing else is mutated before the commit.

The guard is the cohort planner's (:func:`repro.rnic.batch.path_guard`,
:class:`~repro.rnic.batch.RemoteProof`) plus the closed loop's own
reasons: outstanding WQEs (``not_quiescent``), a QP the posts would
raise on (``qp_state``), DDIO (``ddio``: its round-trip draw can
reorder responses), a full CQ (``cq_space``), and stale CQEs or an
``on_completion`` hook (``cq_in_use``: a stale CQE would be the first
sample).  Each decline is counted on the requester's
:class:`~repro.rnic.counters.NICCounters`, each planned run in
``closed_loop_runs``; ``REPRO_RNIC_BATCH=0`` switches this planner off
with the cohort planner.
"""

from __future__ import annotations

import itertools
import types
from typing import TYPE_CHECKING, Optional, Sequence

from repro.rnic import batch
from repro.rnic.batch import Declined, RemoteProof, count_fallback, path_guard
from repro.rnic.rnic import RNIC, STAGES
from repro.verbs.engine import move_one_sided
from repro.verbs.enums import Opcode, QPState, WCStatus
from repro.verbs.wr import make_read_wr, skip_wqe_seqs

if TYPE_CHECKING:  # pragma: no cover
    from repro.host.cluster import RDMAConnection

__all__ = ["try_closed_loop"]

#: Resumed stages from here on carry the data stage's outcome.
_PAST_DATA = STAGES.index("response")
_INF = float("inf")


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
        ulis = _plan(rnic, conn, targets, depth, count)
    except Declined as declined:
        count_fallback(rnic.counters, declined.reason)
        return None
    rnic.counters.closed_loop_runs += 1
    return ulis


def _plan(rnic: RNIC, conn: "RDMAConnection", targets: Sequence,
          depth: int, count: int) -> list:
    if not batch.FAST_PATH_ENABLED:
        raise Declined("disabled")
    qp = conn.qp
    responder = path_guard(rnic, qp)
    if qp.outstanding_send:
        raise Declined("not_quiescent")
    if qp.destroyed or qp.state is not QPState.RTS:
        raise Declined("qp_state")
    rspec = responder.spec
    if rspec.ddio_enabled:
        raise Declined("ddio")
    cq = qp.send_cq
    if not cq.free_space:
        raise Declined("cq_space")
    if len(cq) or cq.on_completion is not None:
        raise Declined("cq_in_use")

    # per-target constants (read j uses target j % ntargets)
    read = Opcode.RDMA_READ
    local_addr = conn.local_mr.addr
    proof = RemoteProof(qp.remote_qp.context, qp.context.memory)
    p_inf = rnic.pcie.inflation
    w_inf = rnic.wire_tx.inflation
    rp_inf = responder.pcie.inflation
    rw_inf = responder.wire_tx.inflation
    rkeys, offsets, sizes, moves = [], [], [], []
    fetch_eff, wire_eff, data_eff, rwire_eff = [], [], [], []
    req_bytes, resp_bytes = [], []
    for target in targets:
        mr, size = target.mr, target.size
        remote_addr = mr.addr + target.offset
        base = proof.base(read, mr.rkey, remote_addr, size, local_addr)
        fetch, req_nbytes, req_wire, resp_nbytes, resp_wire, data, _ = \
            rnic.geometry(read, size, responder)
        rkeys.append(mr.rkey)
        offsets.append(remote_addr - base)
        sizes.append(size)
        moves.append(types.SimpleNamespace(
            opcode=read, local_addr=local_addr, remote_addr=remote_addr,
            length=size))
        fetch_eff.append(fetch * p_inf)
        wire_eff.append(req_wire * w_inf)
        data_eff.append(data * rp_inf)
        rwire_eff.append(resp_wire * rw_inf)
        req_bytes.append(req_nbytes)
        resp_bytes.append(resp_nbytes)
    ntargets = len(targets)

    spec = rnic.spec
    sim = rnic.sim
    translation = responder.translation
    admit = translation.admit
    # Shadow station state: (busy_until, inflation, busy_ns, wait_ns)
    p_busy, _, p_bns, p_wns = rnic.pcie.batch_state()
    t_busy, t_inf, t_bns, t_wns = rnic.txpu.batch_state()
    w_busy, _, w_bns, w_wns = rnic.wire_tx.batch_state()
    x_busy, x_inf, x_bns, x_wns = rnic.rxpu.batch_state()
    rr_busy, rr_inf, rr_bns, rr_wns = responder.rxpu.batch_state()
    rp_busy, _, rp_bns, rp_wns = responder.pcie.batch_state()
    rt_busy, rt_inf, rt_bns, rt_wns = responder.txpu.batch_state()
    rw_busy, _, rw_bns, rw_wns = responder.wire_tx.batch_state()
    t_eff = spec.txpu_ns * t_inf
    x_eff = spec.rxpu_ns * x_inf
    c_eff = spec.cqe_write_ns * p_inf
    rr_eff = rspec.rxpu_ns * rr_inf
    rt_eff = rspec.txpu_ns * rt_inf
    rt_req = spec.pcie.tlp_latency_ns * (1.0 + rnic.pcie.background_utilization)
    rt_resp = rspec.pcie.tlp_latency_ns * (
        1.0 + responder.pcie.background_utilization)
    transit_req = rnic._transit_ns(responder)
    transit_resp = responder._transit_ns(rnic)
    doorbell = spec.doorbell_ns

    n_post = depth + count
    last = n_post - 1
    now = sim.now
    post = [now] * depth                 # post times, grown per completion
    fetch_at = [now + doorbell] * depth  # fetch event times, likewise
    txpu_at = []                         # TxPU event times, per fetched read
    comps = []                           # completion times, consumed reads
    pending = []                         # (time, read, stage), reads in flight
    fetched = 0
    # stage admissions before T, each a post-order prefix of the reads
    n_tx = n_wire = n_rrx = n_data = n_rt = n_rwire = n_rx = 0
    rrx_bytes = rwire_bytes = rx_bytes = 0
    bound = _INF                          # T, once the last sample is in

    checkpoint = translation.checkpoint()
    try:
        for k in range(n_post):
            # (1) the fetches of reads up to k (all fire before read k's
            # requester-Rx event, and after read k-1's)
            while fetched <= k:
                f = fetch_at[fetched]
                if f >= bound:
                    break
                s = f if f > p_busy else p_busy
                e = fetch_eff[fetched % ntargets]
                p_busy = s + e
                p_bns += e
                p_wns += s - f
                txpu_at.append(p_busy + rt_req)
                fetched += 1
            if fetched <= k:
                break  # read k onwards still wait for their fetch
            # (2) read k from the TxPU to its requester-Rx event; the
            # first event at or past the bound is where it resumes
            tg = k % ntargets
            stage = None
            while True:
                a = txpu_at[k]
                if a >= bound:
                    stage = "txpu"
                    break
                s = a if a > t_busy else t_busy
                t_busy = s + t_eff
                t_bns += t_eff
                t_wns += s - a
                n_tx += 1
                a = t_busy
                if a >= bound:
                    stage = "wire_out"
                    break
                s = a if a > w_busy else w_busy
                e = wire_eff[tg]
                w_busy = s + e
                w_bns += e
                w_wns += s - a
                n_wire += 1
                a = w_busy + transit_req
                if a >= bound:
                    stage = "responder_rx"
                    break
                rrx_bytes += req_bytes[tg]
                s = a if a > rr_busy else rr_busy
                rr_busy = s + rr_eff
                rr_bns += rr_eff
                rr_wns += s - a
                n_rrx += 1
                a = rr_busy
                if a >= bound:
                    stage = "translate"
                    break
                a = admit(a, rkeys[tg], offsets[tg], sizes[tg])[0]
                if a >= bound:
                    stage = "data"
                    break
                s = a if a > rp_busy else rp_busy
                e = data_eff[tg]
                rp_busy = s + e
                rp_bns += e
                rp_wns += s - a
                n_data += 1
                a = rp_busy + rt_resp
                if a >= bound:
                    stage = "response"
                    break
                s = a if a > rt_busy else rt_busy
                rt_busy = s + rt_eff
                rt_bns += rt_eff
                rt_wns += s - a
                n_rt += 1
                a = rt_busy
                if a >= bound:
                    stage = "wire_back"
                    break
                s = a if a > rw_busy else rw_busy
                e = rwire_eff[tg]
                rw_busy = s + e
                rw_bns += e
                rw_wns += s - a
                n_rwire += 1
                rwire_bytes += resp_bytes[tg]
                a = rw_busy + transit_resp
                if a >= bound:
                    stage = "requester_rx"
                break
            if stage is not None:
                if a == bound:
                    raise Declined("tie")
                pending.append((a, k, stage))
                continue
            # (3) the fetches that fire before read k's requester-Rx
            # event take the PCIe engine first
            posted = min(k + depth, n_post)
            while fetched < posted:
                f = fetch_at[fetched]
                if f > a:
                    break
                if f == a:
                    raise Declined("tie")
                s = f if f > p_busy else p_busy
                e = fetch_eff[fetched % ntargets]
                p_busy = s + e
                p_bns += e
                p_wns += s - f
                txpu_at.append(p_busy + rt_req)
                fetched += 1
            # (4) requester RxPU, then the CQE write
            rx_bytes += resp_bytes[tg]
            s = a if a > x_busy else x_busy
            x_busy = s + x_eff
            x_bns += x_eff
            x_wns += s - a
            n_rx += 1
            s = x_busy if x_busy > p_busy else p_busy
            p_busy = s + c_eff
            p_bns += c_eff
            p_wns += s - x_busy
            if k < count:
                comps.append(p_busy)
                if k + depth < n_post:
                    post.append(p_busy)
                    fetch_at.append(p_busy + doorbell)
                if k == count - 1:
                    bound = p_busy
            else:
                pending.append((p_busy, k, "complete"))
        for j in range(fetched, n_post):
            f = fetch_at[j]
            # the read posted at T fetches after T's completion event
            if f == bound and j != last:
                raise Declined("tie")
            pending.append((f, j, "fetch"))
        if len({entry[0] for entry in pending}) != len(pending):
            raise Declined("tie")
    except Declined:
        translation.restore(checkpoint)
        raise

    # ------------------------------------------------------------------
    # Commit point — mutations from here on, no fallback
    # ------------------------------------------------------------------
    rnic.pcie.batch_commit(p_busy, p_bns, p_wns, fetched + n_rx)
    rnic.txpu.batch_commit(t_busy, t_bns, t_wns, n_tx)
    rnic.wire_tx.batch_commit(w_busy, w_bns, w_wns, n_wire)
    rnic.rxpu.batch_commit(x_busy, x_bns, x_wns, n_rx)
    responder.rxpu.batch_commit(rr_busy, rr_bns, rr_wns, n_rrx)
    responder.pcie.batch_commit(rp_busy, rp_bns, rp_wns, n_data)
    responder.txpu.batch_commit(rt_busy, rt_bns, rt_wns, n_rt)
    responder.wire_tx.batch_commit(rw_busy, rw_bns, rw_wns, n_rwire)
    tc = qp.traffic_class
    # READ requests carry no payload: every target's is the same size
    rnic.counters.record_tx_bulk(req_bytes[0] * n_wire, n_wire, tc=tc,
                                 opcodes=itertools.repeat(read, n_wire))
    responder.counters.record_rx_bulk(rrx_bytes, n_rrx, tc=tc)
    responder.counters.record_tx_bulk(rwire_bytes, n_rwire, tc=tc)
    rnic.counters.record_rx_bulk(rx_bytes, n_rx, tc=tc)

    # Every read lands in the same local buffer from unchanging remote
    # bytes, so the last data stage of each target decides its contents:
    # replaying the last ``ntargets`` moves in order is exact.
    local_mem = qp.context.memory
    remote_mem = qp.remote_qp.context.memory
    for j in range(max(0, n_data - ntargets), n_data):
        move_one_sided(local_mem, remote_mem, moves[j % ntargets])

    # the WQEs: consumed reads only advance the sequence numbers, the
    # reads in flight are built as the probe's posts would build them
    first_id = conn.claim_wr_ids(n_post)
    skip_wqe_seqs(count)
    inflight = []
    for j in range(count, n_post):
        tg = j % ntargets
        wr = make_read_wr(local_addr, sizes[tg], moves[tg].remote_addr,
                          rkeys[tg], first_id + j)
        wr.post_time = post[j]
        wr.queue_ahead = j if j < depth else depth - 1
        inflight.append(wr)
    per_size: dict = {}
    for j in range(min(ntargets, n_post)):
        size = sizes[j]
        per_size[size] = per_size.get(size, 0) + (
            (n_post - j + ntargets - 1) // ntargets)
    qp.account_closed_loop(per_size, count, inflight)

    # the clock stops at the last consumed completion; then each read in
    # flight resumes on the scalar pipeline at its next stage
    sim.schedule_at(bound, _completion)
    sim.step()
    success = WCStatus.SUCCESS
    for time, j, stage in sorted(pending):
        rnic.launch(qp, inflight[j - count], stage, time,
                    status=success if STAGES.index(stage) >= _PAST_DATA
                    else None)

    return [(comps[k] - post[k]) / (k + 1 if k < depth else depth)
            for k in range(count)]


def _completion() -> None:
    """Stands in for the consumed completion at T (advances the clock)."""
