"""Differential oracle for the batched verbs cohort planner.

``RNIC.post_send_batch`` with the planner disabled is the definition:
the scalar pipeline, one ``_Flight`` per WQE.  Each example builds two
identical clusters, posts the same one or two random cohorts to both
and runs to drain after each; one cluster takes the fast path
(:func:`repro.rnic.batch.try_fast_path`), the other runs with
``batch.FAST_PATH_ENABLED = False``.  Everything either path may change
must agree bit for bit: CQEs, NIC counters, all eight stations, the
translation units (stats, banks, pipeline, caches, RNG), the DDIO
streams, both hosts' memory bytes and the final clock.

Inputs cover READ, WRITE and both atomics; lengths across the 4,096 B
MTU; aligned and unaligned remote offsets; one or two MRs (the
``same_rkey`` cohort admission and the per-WQE one); inline writes;
arbitrary signaling including unsignaled tails; zero and non-zero
doorbells; DDIO on and off; and background utilization on the
stations.
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
import repro.rnic.rnic as rnic_mod
import repro.rnic.translation as translation
from repro.host import Cluster
from repro.rnic import cx5
from repro.sim.event import PyEventCore
from repro.sim.kernel import make_simulator_class
from repro.verbs import Opcode, SendWR
from repro.verbs.context import Context
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
LOCAL_BYTES = 1 << 20
MAX_LENGTH = 8192
MEMORY_BYTES = 1 << 22
#: Host memory contents, so reads and writes move distinct bytes.
PATTERN = (bytes(range(251)) * (MEMORY_BYTES // 251 + 1))[:MEMORY_BYTES]
ONE_SIDED = (Opcode.RDMA_READ, Opcode.RDMA_WRITE,
             Opcode.ATOMIC_FETCH_ADD, Opcode.ATOMIC_CMP_SWP)


@st.composite
def wqes(draw):
    """One WQE as a plain tuple; :func:`make_wr` builds the SendWR."""
    op = draw(st.sampled_from(ONE_SIDED))
    length = 8 if op.is_atomic else draw(st.one_of(
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=1, max_value=MAX_LENGTH)))
    offset = draw(st.integers(min_value=0, max_value=MR_BYTES - length))
    if op.is_atomic or draw(st.booleans()):
        offset -= offset % 8          # aligned
    inline = (op is Opcode.RDMA_WRITE and length <= 188
              and draw(st.booleans()))
    return (op, length, offset, draw(st.integers(min_value=0, max_value=1)),
            draw(st.integers(min_value=0, max_value=LOCAL_BYTES - length)),
            inline, draw(st.booleans()), draw(st.integers(0, 2**40)))


cohorts = st.lists(wqes(), min_size=batch.MIN_BATCH,
                   max_size=2 * translation.VECTOR_MIN + 4)

cases = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**32),
    "cohorts": st.lists(cohorts, min_size=1, max_size=2),
    "doorbell_ns": st.sampled_from([0.0, 150.0, 900.0]),
    "ddio": st.booleans(),
    "background": st.sampled_from([0.0, 0.0, 0.35]),
})


def build(sim_class, case):
    spec = dataclasses.replace(cx5(), doorbell_ns=case["doorbell_ns"],
                               ddio_enabled=case["ddio"])
    cluster = Cluster(seed=case["seed"])
    cluster.sim = sim_class(seed=case["seed"])  # swap before any host
    server = cluster.add_host("server", spec=spec, memory_size=MEMORY_BYTES)
    client = cluster.add_host("client", spec=spec,
                              memory_size=MEMORY_BYTES)
    # rkeys come from a process-wide counter and name the MPT/MTT cache
    # sets, so both clusters must get the same ones
    with mock.patch.object(Context, "_rkey_counter", itertools.count(0x1000)):
        conn = cluster.connect(client, server, max_send_wr=64,
                               local_buffer=LOCAL_BYTES)
        mrs = [server.reg_mr(MR_BYTES, huge_pages=False) for _ in range(2)]
    for host in (server, client):
        host.memory.write(host.memory.base, PATTERN)
        for station in (host.rnic.pcie, host.rnic.txpu, host.rnic.rxpu,
                        host.rnic.wire_tx):
            station.set_background_utilization(case["background"])
    return cluster, server, client, conn, mrs


def make_wr(conn, mrs, wr_id, wqe):
    op, length, offset, mr_index, local, inline, signaled, operand = wqe
    mr = mrs[mr_index]
    return SendWR(opcode=op, local_addr=conn.local_mr.addr + local,
                  length=length, remote_addr=mr.addr + offset, rkey=mr.rkey,
                  wr_id=wr_id, signaled=signaled, inline=inline,
                  compare_add=operand, swap=operand ^ 0x5A5A)


def unit_state(unit):
    caches = [(cache.hits, cache.misses, cache.evictions, cache.resident())
              for cache in (unit.mpt_cache, unit.mtt_cache)]
    return (dataclasses.asdict(unit.stats), list(unit._bank_busy),
            unit._pipe_busy, caches, unit.rng.bit_generator.state)


def observe(cluster, server, client, cqes):
    nics = (client.rnic, server.rnic)
    return (
        [(c.wr_id, c.status, c.opcode, c.byte_len, c.post_time,
          c.complete_time) for c in cqes],
        [path_neutral(nic.counters) for nic in nics],
        [(st.name, st.busy_until, st.served, st.busy_ns, st.wait_ns)
         for nic in nics
         for st in (nic.pcie, nic.txpu, nic.rxpu, nic.wire_tx)],
        [unit_state(nic.translation) for nic in nics],
        [nic._ddio_rng.bit_generator.state for nic in nics],
        [hashlib.sha256(host.memory.read(host.memory.base,
                                         host.memory.size)).hexdigest()
         for host in (server, client)],
        cluster.sim.now,
    )


def run(sim_class, case, enabled):
    cluster, server, client, conn, mrs = build(sim_class, case)
    cqes = []
    wr_id = 0
    with mock.patch.object(batch, "FAST_PATH_ENABLED", enabled):
        for cohort in case["cohorts"]:
            wrs = []
            for wqe in cohort:
                wr_id += 1
                wrs.append(make_wr(conn, mrs, wr_id, wqe))
            conn.qp.post_send_batch(wrs)
            signaled = sum(1 for wr in wrs if wr.signaled)
            if signaled:
                cqes.extend(conn.await_completions(signaled))
            cluster.sim.run()  # drain trailing unsignaled completions
    return observe(cluster, server, client, cqes)


@pytest.mark.parametrize("core", ENGINES)
def test_planner_matches_scalar_pipeline(core):
    sim_class = make_simulator_class(core)
    tally = Counter()
    real = batch.try_fast_path

    def spy(rnic, qp, wrs):
        took = real(rnic, qp, wrs)
        if batch.FAST_PATH_ENABLED:
            tally["fast" if took else "declined"] += 1
        return took

    @settings(max_examples=60, deadline=None)
    @given(case=cases)
    def check(case):
        with mock.patch.object(rnic_mod, "try_fast_path", spy):
            scalar = run(sim_class, case, False)
            fast = run(sim_class, case, True)
        assert fast == scalar

    check()
    # the oracle must compare fast with scalar, not scalar with scalar
    assert tally["fast"] >= tally["declined"], tally
