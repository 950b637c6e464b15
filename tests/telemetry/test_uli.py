"""Unit tests for the ULI probe."""

import numpy as np
import pytest

from repro.host import Cluster
from repro.rnic import cx5
from repro.telemetry import ProbeTarget, ULIProbe


def setup_probe(max_send_wr=8, depth=None, targets=None, seed=0):
    cluster = Cluster(seed=seed)
    server = cluster.add_host("server", spec=cx5())
    client = cluster.add_host("client", spec=cx5())
    conn = cluster.connect(client, server, max_send_wr=max_send_wr)
    mr = server.reg_mr(2 * 1024 * 1024)
    if targets is None:
        targets = [ProbeTarget(mr, 0, 64)]
    probe = ULIProbe(conn, targets, depth=depth)
    return cluster, server, conn, mr, probe


def test_measure_returns_requested_samples():
    _, _, _, _, probe = setup_probe()
    samples = probe.measure(50)
    assert samples.shape == (50,)
    assert (samples > 0).all()


def test_queue_depth_maintained():
    _, _, conn, _, probe = setup_probe(max_send_wr=8)
    probe.measure(30)
    assert conn.qp.outstanding_send == 8


def test_alternating_targets_cycle():
    cluster = Cluster(seed=1)
    server = cluster.add_host("server", spec=cx5())
    client = cluster.add_host("client", spec=cx5())
    conn = cluster.connect(client, server, max_send_wr=4)
    mr = server.reg_mr(2 * 1024 * 1024)
    # alternating same/different bank targets, as in Figures 6-8
    targets = [ProbeTarget(mr, 0, 64), ProbeTarget(mr, 1024, 64)]
    probe = ULIProbe(conn, targets)
    samples = probe.measure(40)
    assert samples.shape == (40,)


def test_misaligned_target_has_higher_uli():
    """The offset effect must be visible through the full pipeline."""
    _, _, _, mr, probe_aligned = setup_probe(
        targets=None, max_send_wr=8
    )
    aligned = probe_aligned.measure(120).mean()

    cluster2 = Cluster(seed=0)
    server2 = cluster2.add_host("server", spec=cx5())
    client2 = cluster2.add_host("client", spec=cx5())
    conn2 = cluster2.connect(client2, server2, max_send_wr=8)
    mr2 = server2.reg_mr(2 * 1024 * 1024)
    probe_misaligned = ULIProbe(conn2, [ProbeTarget(mr2, 255, 64)])
    misaligned = probe_misaligned.measure(120).mean()
    assert misaligned > aligned


def test_depth_validation():
    cluster = Cluster(seed=0)
    server = cluster.add_host("server", spec=cx5())
    client = cluster.add_host("client", spec=cx5())
    conn = cluster.connect(client, server, max_send_wr=4)
    mr = server.reg_mr(4096)
    with pytest.raises(ValueError):
        ULIProbe(conn, [ProbeTarget(mr, 0, 64)], depth=8)
    with pytest.raises(ValueError):
        ULIProbe(conn, [ProbeTarget(mr, 0, 64)], depth=0)


def test_target_validation():
    cluster = Cluster(seed=0)
    server = cluster.add_host("server", spec=cx5())
    mr = server.reg_mr(4096)
    with pytest.raises(ValueError):
        ProbeTarget(mr, 4090, 64)   # escapes the MR
    with pytest.raises(ValueError):
        ProbeTarget(mr, -1, 64)


def test_empty_targets_rejected():
    cluster = Cluster(seed=0)
    server = cluster.add_host("server", spec=cx5())
    client = cluster.add_host("client", spec=cx5())
    conn = cluster.connect(client, server)
    with pytest.raises(ValueError):
        ULIProbe(conn, [])


def test_measure_validation():
    _, _, _, _, probe = setup_probe()
    with pytest.raises(ValueError):
        probe.measure(0)


def test_consecutive_measures_reuse_pipeline():
    _, _, _, _, probe = setup_probe()
    first = probe.measure(20)
    second = probe.measure(20)
    assert first.shape == second.shape == (20,)


@pytest.mark.parametrize("num_samples, warmup", [
    (10, -3),      # was treated as no warmup
    (10, 2.5),     # was discarding 3 samples
    (2.5, 0),      # was returning 3 samples
    (10.0, 0),
    (True, 0),
    (10, None),
])
def test_measure_rejects_non_counts(num_samples, warmup):
    cluster, _, conn, _, probe = setup_probe()
    with pytest.raises(ValueError):
        probe.measure(num_samples, warmup=warmup)
    # rejected before anything was posted, on either path
    assert conn.qp.outstanding_send == 0
    assert cluster.sim.pending == 0


def test_measure_accepts_numpy_counts():
    _, _, _, _, probe = setup_probe()
    samples = probe.measure(np.int64(12), warmup=np.int32(0))
    assert samples.shape == (12,)


def test_measure_counts_stale_cqes_against_the_depth():
    """CQEs left waiting in the CQ are the next samples, and each one
    re-posts a read: the fill must leave room for them, or a full
    queue (depth == max_send_wr) overflows."""
    cluster, _, conn, _, probe = setup_probe(max_send_wr=4, depth=4)
    probe.measure(10)
    cluster.sim.run()
    assert conn.qp.outstanding_send == 0 and len(conn.cq) == 4
    samples = probe.measure(10)
    assert samples.shape == (10,)
    assert conn.qp.outstanding_send + len(conn.cq) == 4
