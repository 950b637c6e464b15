"""A scalar WQE is freed by reference counting when its last event fires.

Each WQE on the scalar pipeline is one :class:`repro.rnic.rnic._Flight`
whose stage methods are the scheduled events.  Nothing but the event
heap may refer to a flight, and a flight refers to nothing that refers
back to it, so no WQE ever becomes cyclic garbage.  The test drives a
mixed scalar workload to drain on each available kernel core with the
collector paused:

* RC reads, writes and atomics over a lossy link (ACK-timeout retries);
* a SEND with no receive posted, which takes RNR NAKs until its budget
  runs out;
* a remote access error that moves a QP to ERROR and flushes the reads
  behind it;
* a UD SEND;
* one read resumed by ``RNIC.launch`` at a middle stage with a status,
  as the closed-loop planner resumes reads.

Then ``gc.collect()`` under ``DEBUG_SAVEALL`` must find no flight, no
``SendWR`` and no stage callable among the unreachable objects, and no
flight of the workload may still be reachable (which catches a
reference leak in the C core's dispatch).
"""

import gc

import pytest

from repro.fabric import Link
from repro.host import Cluster
from repro.rnic import cx5
from repro.rnic.rnic import STAGES, _Flight
from repro.sim.event import PyEventCore
from repro.sim.kernel import make_simulator_class
from repro.verbs import AddressHandle, Opcode, QPType, RecvWR, SendWR, WCStatus
from repro.verbs.qp import QPCapabilities

try:
    from repro.sim import _speedups
except ImportError:
    _speedups = None

CORES = [
    pytest.param(PyEventCore, id="python"),
    pytest.param(getattr(_speedups, "EventCore", None), id="c",
                 marks=pytest.mark.skipif(_speedups is None,
                                          reason="_speedups not built")),
]


def _ud_qp(host):
    cq = host.context.create_cq()
    qp = host.context.create_qp(host.pd, cq, qp_type=QPType.UD,
                                cap=QPCapabilities(max_send_wr=8))
    qp.ready()
    return qp, cq


def drive(core):
    """Run the mixed workload to drain; returns the cluster and what
    the assertions need to know it took every path."""
    cluster = Cluster(seed=11)
    cluster.sim = make_simulator_class(core)(seed=11)  # before any host
    sim = cluster.sim
    server = cluster.add_host("server", spec=cx5())
    lossy = cluster.add_host("lossy", spec=cx5(),
                             link=Link(loss_probability=0.3))
    clean = cluster.add_host("clean", spec=cx5())
    mr = server.reg_mr(1 << 16)

    # RC reads, writes and atomics on a lossy link: ACK-timeout retries
    rc = cluster.connect(lossy, server, max_send_wr=32)
    for i in range(8):
        rc.post_read(mr, 64 * i, 64)
        rc.post_write(mr, 4096 + 64 * i, 64)
        rc.post_atomic(mr, 8192 + 8 * i, fetch_add=1)

    # a SEND with no receive posted: RNR NAKs until the budget runs out
    rnr = cluster.connect(clean, server)
    rnr.qp.post_send(SendWR(opcode=Opcode.SEND,
                            local_addr=rnr.local_mr.addr, length=8))

    # an out-of-bounds read fails with REM_ACCESS_ERR: the QP goes to
    # ERROR and the reads posted behind it are flushed mid-pipeline
    flush = cluster.connect(clean, server)
    flush.post_read(mr, 1 << 17, 64)
    for i in range(4):
        flush.post_read(mr, 64 * i, 64)

    # a UD SEND into a posted receive
    ud_send, ud_cq = _ud_qp(clean)
    ud_recv, _ = _ud_qp(server)
    ud_buf = server.reg_mr(4096)
    ud_recv.post_recv(RecvWR(local_addr=ud_buf.addr, length=256, wr_id=9))
    ud_send.post_send(SendWR(opcode=Opcode.SEND, local_addr=rnr.local_mr.addr,
                             length=8, ah=AddressHandle(remote_qp=ud_recv)))

    # a read resumed past its data stage, as the closed-loop planner does
    resumed = cluster.connect(clean, server)
    wr = SendWR(opcode=Opcode.RDMA_READ, local_addr=resumed.local_mr.addr,
                length=64, remote_addr=mr.addr, rkey=mr.rkey, wr_id=77)
    wr.post_time = sim.now
    resumed.qp.account_closed_loop({64: 1}, 0, [wr])
    clean.rnic.launch(resumed.qp, wr, "wire_back", sim.now + 100.0,
                      status=WCStatus.SUCCESS)

    sim.run()
    assert sim.pending == 0
    taken = {
        "timeouts": lossy.rnic.counters.timeouts,
        "rnr_naks": clean.rnic.counters.rnr_naks,
        "flushed": clean.rnic.counters.flushed_wqes,
        "ud": [wc.status for wc in ud_cq.poll(4)],
        "resumed": [(wc.wr_id, wc.status) for wc in resumed.cq.poll(4)],
    }
    return cluster, taken


def _pipeline_object(obj):
    """A flight, a WQE, or a stage callable (a bound flight method, or
    a closure built by ``RNIC.launch``)."""
    if isinstance(obj, (_Flight, SendWR)):
        return True
    qualname = getattr(obj, "__qualname__", None)
    return isinstance(qualname, str) and qualname.startswith(
        ("_Flight.", "RNIC.launch."))


@pytest.mark.parametrize("core", CORES)
def test_scalar_wqes_leave_no_cyclic_garbage(core):
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        cluster, taken = drive(core)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            garbage = [obj for obj in gc.garbage if _pipeline_object(obj)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        nics = {host.rnic for host in cluster.hosts.values()}
        alive = [obj for obj in gc.get_objects()
                 if isinstance(obj, _Flight) and obj.nic in nics]
    finally:
        if was_enabled:
            gc.enable()
    # every path of the workload was taken
    assert taken["timeouts"] > 0
    assert taken["rnr_naks"] > 0
    assert taken["flushed"] > 0
    assert taken["ud"] == [WCStatus.SUCCESS]
    assert taken["resumed"] == [(77, WCStatus.SUCCESS)]
    assert garbage == []
    assert alive == []


def test_stages_are_flight_methods():
    for stage in STAGES:
        assert callable(getattr(_Flight, stage)), stage


@pytest.mark.parametrize("stage", ["bogus", "retry", "rnr_nak", "__init__"])
def test_launch_rejects_an_unknown_stage(stage):
    cluster = Cluster(seed=0)
    server = cluster.add_host("server", spec=cx5())
    client = cluster.add_host("client", spec=cx5())
    conn = cluster.connect(client, server)
    mr = server.reg_mr(4096)
    wr = SendWR(opcode=Opcode.RDMA_READ, local_addr=conn.local_mr.addr,
                length=64, remote_addr=mr.addr, rkey=mr.rkey)
    with pytest.raises(ValueError, match=repr(stage)):
        client.rnic.launch(conn.qp, wr, stage, 0.0)
    assert cluster.sim.pending == 0
