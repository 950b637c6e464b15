"""The batched planner's path tally: every cohort is counted on the
requester's ``NICCounters`` as fast, or as a fallback with the reason
that declined it (``repro.rnic.batch.FALLBACK_REASONS``)."""

import dataclasses

import pytest

import repro.obs.runtime as obs_runtime
import repro.rnic.batch as batch
from repro.fabric.network import Link
from repro.host import Cluster
from repro.rnic import cx5
from repro.verbs import Opcode, SendWR
from repro.verbs.enums import AccessFlags, QPType

COHORT = 8


@pytest.fixture(autouse=True)
def fast_path_on(monkeypatch):
    monkeypatch.setattr(batch, "FAST_PATH_ENABLED", True)


def pair(spec=None, link=None, cq_capacity=4096):
    cluster = Cluster(seed=3)
    server = cluster.add_host("server", spec=spec or cx5(), link=link)
    client = cluster.add_host("client", spec=spec or cx5(), link=link)
    conn = cluster.connect(client, server, cq_capacity=cq_capacity)
    mr = server.reg_mr(1 << 16)
    return cluster, client, server, conn, mr


def reads(conn, mr, count=COHORT, **overrides):
    fields = dict(opcode=Opcode.RDMA_READ, local_addr=conn.local_mr.addr,
                  length=64, rkey=mr.rkey)
    fields.update(overrides)
    return [SendWR(remote_addr=mr.addr + 64 * i, wr_id=i, **fields)
            for i in range(count)]


def declined(rnic, qp, wrs):
    """Plan ``wrs`` directly; return the one reason it was counted under."""
    assert batch.try_fast_path(rnic, qp, wrs) is False
    counters = rnic.counters
    assert counters.batch_fast_cohorts == 0
    (reason, count), = counters.batch_fallbacks.items()
    assert count == 1 and reason in batch.FALLBACK_REASONS
    return reason


def test_disabled(monkeypatch):
    _, client, _, conn, mr = pair()
    monkeypatch.setattr(batch, "FAST_PATH_ENABLED", False)
    assert declined(client.rnic, conn.qp, reads(conn, mr)) == "disabled"


def test_small():
    _, client, _, conn, mr = pair()
    assert declined(client.rnic, conn.qp, reads(conn, mr, 1)) == "small"


def test_not_quiescent():
    _, client, _, conn, mr = pair()
    conn.post_read(mr, 0, 64)
    assert declined(client.rnic, conn.qp, reads(conn, mr)) == "not_quiescent"


def test_not_quiescent_after_stale_cancel():
    """Cancelling an already-fired handle must not hide the one event
    still in flight from the planner's quiescence guard."""
    cluster, client, _, conn, mr = pair()
    fired = cluster.sim.schedule(1.0, lambda: None)
    cluster.sim.run()
    cluster.sim.schedule(1.0, lambda: None)
    cluster.sim.cancel(fired)
    assert declined(client.rnic, conn.qp, reads(conn, mr)) == "not_quiescent"


def test_hooks():
    cluster, client, _, conn, mr = pair()
    cluster.sim.enable_tracing()
    assert declined(client.rnic, conn.qp, reads(conn, mr)) == "hooks"


def test_obs():
    """A tracer emits per-stage spans from the NIC even once its
    dispatch hook is off the simulator."""
    obs_runtime.install(trace=True)
    try:
        cluster, client, _, conn, mr = pair()
    finally:
        obs_runtime.uninstall()
    tracer = client.rnic._obs
    cluster.sim.remove_dispatch_hook(tracer._dispatch_hook)
    assert declined(client.rnic, conn.qp, reads(conn, mr)) == "obs"


def test_transport():
    _, client, server, conn, mr = pair()
    qp = client.context.create_qp(client.pd, client.context.create_cq(64),
                                  qp_type=QPType.UC)
    qp.connect(server.context.create_qp(
        server.pd, server.context.create_cq(64), qp_type=QPType.UC))
    wrs = reads(conn, mr, opcode=Opcode.RDMA_WRITE)
    assert declined(client.rnic, qp, wrs) == "transport"


def test_unconnected():
    _, client, _, conn, mr = pair()
    qp = client.context.create_qp(client.pd, client.context.create_cq(64))
    assert declined(client.rnic, qp, reads(conn, mr)) == "unconnected"


def test_responder():
    cluster, client, _, _, _ = pair()
    loop = cluster.connect(client, client)
    mr = client.reg_mr(1 << 16)
    assert declined(client.rnic, loop.qp, reads(loop, mr)) == "responder"


def test_lossy():
    _, client, _, conn, mr = pair(link=Link(loss_probability=0.01))
    assert declined(client.rnic, conn.qp, reads(conn, mr)) == "lossy"


def test_cq_destroyed():
    _, client, _, conn, mr = pair()
    conn.qp.send_cq.destroy()
    assert declined(client.rnic, conn.qp, reads(conn, mr)) == "cq_destroyed"


def test_wqe_kind():
    _, client, _, conn, mr = pair()
    wrs = reads(conn, mr)
    wrs[3] = SendWR(opcode=Opcode.SEND, local_addr=conn.local_mr.addr,
                    length=64, wr_id=3)
    assert declined(client.rnic, conn.qp, wrs) == "wqe_kind"


def test_access():
    _, client, server, conn, _ = pair()
    mr = server.reg_mr(1 << 16, access=AccessFlags.LOCAL_WRITE)
    assert declined(client.rnic, conn.qp, reads(conn, mr)) == "access"


def test_rkey():
    _, client, _, conn, mr = pair()
    mr.deregister()
    assert declined(client.rnic, conn.qp, reads(conn, mr)) == "rkey"


def test_remote_bounds():
    _, client, _, conn, mr = pair()
    wrs = reads(conn, mr)
    wrs[5].remote_addr = mr.end - 8
    assert declined(client.rnic, conn.qp, wrs) == "remote_bounds"


def test_local_bounds():
    _, client, _, conn, mr = pair()
    wrs = reads(conn, mr)
    wrs[2].local_addr = client.memory.end
    assert declined(client.rnic, conn.qp, wrs) == "local_bounds"


def test_cq_space():
    _, client, _, conn, mr = pair(cq_capacity=COHORT - 1)
    assert declined(client.rnic, conn.qp, reads(conn, mr)) == "cq_space"


def test_pcie_hazard_falls_back_and_completes():
    """A doorbell far longer than a round trip would let CQE writes
    precede WQE 0's fetch; the scalar path then serves the cohort."""
    spec = dataclasses.replace(cx5(), doorbell_ns=1e6)
    _, client, _, conn, mr = pair(spec=spec)
    conn.qp.post_send_batch(reads(conn, mr))
    assert all(c.ok for c in conn.await_completions(COHORT))
    assert client.rnic.counters.batch_fallbacks == {"pcie_hazard": 1}
    assert client.rnic.counters.snapshot()["batch_fallback_pcie_hazard"] == 1


def test_snapshot_exports_only_nonzero_tallies():
    _, client, server, conn, mr = pair()
    assert not any(key.startswith("batch_")
                   for key in client.rnic.counters.snapshot())
    conn.qp.post_send_batch(reads(conn, mr))
    conn.await_completions(COHORT)
    conn.qp.post_send_batch(reads(conn, mr, 1))
    conn.await_completions(1)
    snap = client.rnic.counters.snapshot()
    assert {key: value for key, value in snap.items()
            if key.startswith("batch_")} == {
        "batch_fast_cohorts": 1, "batch_fallback_small": 1}
    # the responder posted nothing
    assert not any(key.startswith("batch_")
                   for key in server.rnic.counters.snapshot())


def test_perfbench_cohorts_count_only_as_fast():
    """The benchmark's verbs-messages cohorts (mixed Read/Write, 256
    WQEs, selective signaling) all take the fast path."""
    from perfbench.workloads import VerbsPair

    verbs = VerbsPair(0, (0, 0))
    for index in range(4):
        assert verbs.check(index, verbs.cohort(index)) == []
    counters = verbs.client.rnic.counters
    assert counters.batch_fast_cohorts == 4
    assert counters.batch_fallbacks == {}
