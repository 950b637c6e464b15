"""Differential oracle for the ULI probe's closed-loop planner.

``ULIProbe.measure`` with the planners switched off
(``batch.FAST_PATH_ENABLED = False``, what ``REPRO_RNIC_BATCH=0``
sets) is the definition: a depth-*d* loop of RDMA Reads through the
scalar pipeline (one ``_Flight`` per WQE), re-posting on every
completion.  Each
example builds two identical clusters and measures the same random
probe on both; one hands the run to
:func:`repro.rnic.closed_loop.try_closed_loop`, the other does not.

At return, everything either path may change must agree bit for bit:
the samples, the clock, all eight stations, both translation units
(stats, banks, pipeline, history registers, caches, RNG), the NIC
counters, the QP/CQ bookkeeping, the in-flight WQEs and both hosts'
memory.  Both clusters then run to drain with a dispatch hook
recording every event, so the pending events (time and order) and the
resumed in-flight reads are compared too.  A second ``measure()`` then
starts from the warm state (caches, station horizons, clock) and must
agree as well, neither path raising: with the drained CQEs polled, or
left in the CQ, where they are its first samples and count against
the depth (the planner declines that run as ``cq_in_use``).

Inputs cover one to three targets on one or two MRs, sizes of 1 to
8,192 B, aligned and unaligned offsets, depth 1..``max_send_wr``,
warmup and sample counts, CX-4/5/6, doorbells of 0 and 150 ns,
background utilization, and zero-jitter and whole-nanosecond specs on
which exact event-time ties actually occur.
"""

import dataclasses
import hashlib
import itertools
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.rnic.batch as batch
from repro.host import Cluster
from repro.rnic import cx4, cx5, cx6
from repro.sim.event import PyEventCore
from repro.sim.kernel import make_simulator_class
from repro.sim.units import gbps
from repro.telemetry import ProbeTarget, ULIProbe
from repro.verbs import Opcode, SendWR
from repro.verbs.context import Context
from tests.properties.test_cohort_planner import unit_state
from tests.rnic.test_batch_equivalence import path_neutral

try:
    from repro.sim import _speedups
except ImportError:
    _speedups = None

#: The event core per engine: the pure-Python one, and the C one when
#: the extension is built.
ENGINES = [
    pytest.param(PyEventCore, id="python"),
    pytest.param(
        getattr(_speedups, "EventCore", None),
        id="c",
        marks=pytest.mark.skipif(_speedups is None,
                                 reason="_speedups not built")),
]

MR_BYTES = 1 << 16
MAX_SIZE = 8192
MEMORY_BYTES = 1 << 21
PATTERN = (bytes(range(251)) * (MEMORY_BYTES // 251 + 1))[:MEMORY_BYTES]
SPECS = {"CX-4": cx4, "CX-5": cx5, "CX-6": cx6}


@st.composite
def targets(draw):
    size = draw(st.one_of(st.sampled_from([8, 64, 1024]),
                          st.integers(min_value=1, max_value=MAX_SIZE)))
    offset = draw(st.integers(min_value=0, max_value=MR_BYTES - size))
    if draw(st.booleans()):
        offset -= offset % 64          # aligned
    return draw(st.integers(min_value=0, max_value=1)), offset, size


runs = {
    "seed": st.integers(min_value=0, max_value=2**32),
    "warmup": st.integers(min_value=0, max_value=40),
    "samples": st.integers(min_value=1, max_value=60),
    "poll": st.booleans(),
}
cases = st.one_of(
    st.fixed_dictionaries({
        **runs,
        "spec": st.sampled_from(sorted(SPECS)),
        "zero_jitter": st.booleans(),
        "integer_rates": st.booleans(),
        "doorbell_ns": st.sampled_from([0.0, 150.0]),
        "background": st.sampled_from([0.0, 0.0, 0.35]),
        "targets": st.lists(targets(), min_size=1, max_size=3),
        "max_send_wr": st.integers(min_value=1, max_value=48),
        "depth": st.floats(min_value=0.0, max_value=1.0),
    }),
    # two families on which exact event-time ties are common, so the
    # planner's tie declines and its rollback of the translation unit
    # are compared too: reads in flight pending at the same instant
    # (about two runs in five) ...
    st.fixed_dictionaries({
        **runs,
        "spec": st.just("CX-5"),
        "zero_jitter": st.just(True),
        "integer_rates": st.just(False),
        "doorbell_ns": st.just(150.0),
        "background": st.just(0.0),
        "targets": st.just([(0, 0, 8), (0, 1024, 1024)]),
        "max_send_wr": st.integers(min_value=16, max_value=48),
        "depth": st.floats(min_value=0.3, max_value=1.0),
    }),
    # ... and a WQE fetch firing with a requester-Rx event at the PCIe
    # engine (about one run in four)
    st.fixed_dictionaries({
        **runs,
        "spec": st.just("CX-5"),
        "zero_jitter": st.just(True),
        "integer_rates": st.just(True),
        "doorbell_ns": st.sampled_from([80.0, 105.0, 130.0, 380.0, 980.0]),
        "background": st.just(0.0),
        "targets": st.sampled_from([[(0, 0, 64)], [(0, 0, 64), (0, 1024, 64)],
                                    [(0, 0, 64), (0, 64, 64)]]),
        "max_send_wr": st.just(3),
        "depth": st.sampled_from([0.5, 1.0]),
    }),
)


def build(sim_class, case):
    spec = dataclasses.replace(SPECS[case["spec"]](),
                               doorbell_ns=case["doorbell_ns"])
    if case["zero_jitter"]:
        spec = dataclasses.replace(spec, jitter_frac=0.0, spike_prob=0.0)
    if case["integer_rates"]:
        # 1 B/ns on the wire and on PCIe: whole-nanosecond service times
        spec = dataclasses.replace(
            spec, line_rate_bps=gbps(8.0),
            pcie=dataclasses.replace(spec.pcie, raw_rate_bps=gbps(10.0),
                                     efficiency=0.8))
    cluster = Cluster(seed=case["seed"])
    cluster.sim = sim_class(seed=case["seed"])  # swap before any host
    server = cluster.add_host("server", spec=spec, memory_size=MEMORY_BYTES)
    client = cluster.add_host("client", spec=spec, memory_size=MEMORY_BYTES)
    # rkeys name the MPT/MTT cache sets: both clusters get the same ones
    with mock.patch.object(Context, "_rkey_counter", itertools.count(0x1000)):
        conn = cluster.connect(client, server,
                               max_send_wr=case["max_send_wr"],
                               local_buffer=2 * MAX_SIZE)
        mrs = [server.reg_mr(MR_BYTES, huge_pages=False) for _ in range(2)]
    for host in (server, client):
        host.memory.write(host.memory.base, PATTERN)
        for station in (host.rnic.pcie, host.rnic.txpu, host.rnic.rxpu,
                        host.rnic.wire_tx):
            station.set_background_utilization(case["background"])
    depth = 1 + int(case["depth"] * (case["max_send_wr"] - 1))
    probe = ULIProbe(conn, [ProbeTarget(mrs[index], offset, size)
                            for index, offset, size in case["targets"]],
                     depth=depth)
    return cluster, server, client, conn, probe


def wqe_seq():
    """The next WQE sequence number (consumes one)."""
    return SendWR(opcode=Opcode.RDMA_READ).seq


def observe(cluster, server, client, conn, probe, seq0):
    nics = (client.rnic, server.rnic)
    qp, cq = conn.qp, conn.cq
    return (
        cluster.sim.now,
        cluster.sim.pending,
        [path_neutral(nic.counters) for nic in nics],
        [(st.name, st.busy_until, st.served, st.busy_ns, st.wait_ns)
         for nic in nics
         for st in (nic.pcie, nic.txpu, nic.rxpu, nic.wire_tx)],
        [(unit_state(nic.translation), nic.translation._last_mr,
          nic.translation._last_seg_mr, nic.translation._last_seg_idx,
          nic.translation._last_line_mr, nic.translation._last_line_idx)
         for nic in nics],
        (qp.outstanding_send, qp.total_posted, qp.total_completed,
         qp.bytes_posted, list(qp.opcode_counts.items()),
         list(qp.size_counts.items()), qp.state),
        [(wr.wr_id, wr.seq - seq0, wr.opcode, wr.local_addr, wr.length,
          wr.remote_addr, wr.rkey, wr.signaled, wr.post_time,
          wr.complete_time, wr.queue_ahead, wr.flushed)
         for wr in qp._inflight_sends.values()],
        (len(cq), cq.total_completions, conn._wr_ids, probe._cursor),
        [hashlib.sha256(host.memory.read(host.memory.base,
                                         host.memory.size)).hexdigest()
         for host in (server, client)],
    )


def run(sim_class, case, enabled):
    """Measure, drain, measure again; everything observed on the way."""
    cluster, server, client, conn, probe = build(sim_class, case)
    sim = cluster.sim
    seq0 = wqe_seq()
    with mock.patch.object(batch, "FAST_PATH_ENABLED", enabled):
        first = probe.measure(case["samples"], warmup=case["warmup"])
        at_return = observe(cluster, server, client, conn, probe, seq0)
        seq1 = wqe_seq() - seq0
        fired = []
        hook = lambda time, priority, callback: fired.append(  # noqa: E731
            (time, priority, callback.__qualname__))
        sim.add_dispatch_hook(hook)
        sim.run()
        sim.remove_dispatch_hook(hook)
        drained = observe(cluster, server, client, conn, probe, seq0)
        cqes = [(c.wr_id, c.status, c.byte_len, c.post_time,
                 c.complete_time, c.queue_ahead)
                for c in (conn.cq.drain() if case["poll"] else ())]
        second = probe.measure(case["samples"], warmup=case["warmup"])
        again = observe(cluster, server, client, conn, probe, seq0)
    taken = client.rnic.counters.closed_loop_runs
    return (first.tobytes(), at_return, seq1, fired, drained, cqes,
            second.tobytes(), again), taken, client.rnic.counters


@pytest.mark.parametrize("core", ENGINES)
def test_closed_loop_matches_scalar_probe(core):
    sim_class = make_simulator_class(core)
    tally = Counter()

    # derandomized: the tally below is a verdict on a fixed example set,
    # not on whichever 300 examples a fresh seed happens to draw
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=cases)
    def check(case):
        scalar, _, _ = run(sim_class, case, False)
        planned, taken, counters = run(sim_class, case, True)
        tally["taken"] += taken
        tally.update(counters.batch_fallbacks)
        assert planned == scalar

    check()
    # the oracle must compare the planner with the scalar loop, not the
    # scalar loop with itself, and reach the tie decline
    assert tally["taken"] >= sum(tally.values()) - tally["taken"], tally
    assert tally["tie"], tally
