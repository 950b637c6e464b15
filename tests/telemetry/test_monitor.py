"""Unit tests for bandwidth monitors and counter samplers."""

import pytest

from repro.host import Cluster
from repro.rnic import FluidFlow, cx5
from repro.sim.units import MILLISECONDS, SECONDS
from repro.telemetry import BandwidthMonitor, CounterSampler
from repro.verbs.enums import Opcode


def setup_cluster():
    cluster = Cluster(seed=0)
    server = cluster.add_host("server", spec=cx5())
    client = cluster.add_host("client", spec=cx5())
    return cluster, server, client


def test_monitor_samples_at_interval():
    cluster, server, _ = setup_cluster()
    flow = FluidFlow(opcode=Opcode.RDMA_READ, msg_size=4096, qp_num=4)
    server.rnic.add_fluid_flow(flow)
    monitor = BandwidthMonitor(cluster.sim, server.rnic, flow,
                               interval_ns=10 * MILLISECONDS)
    monitor.start()
    cluster.run_for(105 * MILLISECONDS)
    assert len(monitor.samples) == 10
    assert all(v > 0 for v in monitor.values)


def test_monitor_sees_bandwidth_drop_when_bully_appears():
    cluster, server, _ = setup_cluster()
    victim = FluidFlow(opcode=Opcode.RDMA_READ, msg_size=4096, qp_num=4)
    server.rnic.add_fluid_flow(victim)
    monitor = BandwidthMonitor(cluster.sim, server.rnic, victim,
                               interval_ns=10 * MILLISECONDS)
    monitor.start()
    bully = FluidFlow(opcode=Opcode.RDMA_WRITE, msg_size=32768, qp_num=16)
    cluster.sim.schedule(50 * MILLISECONDS, server.rnic.add_fluid_flow, bully)
    cluster.run_for(100 * MILLISECONDS)
    values = monitor.values
    assert values[-1] < values[0]


def test_monitor_stop():
    cluster, server, _ = setup_cluster()
    flow = FluidFlow(opcode=Opcode.RDMA_READ, msg_size=4096)
    server.rnic.add_fluid_flow(flow)
    monitor = BandwidthMonitor(cluster.sim, server.rnic, flow,
                               interval_ns=MILLISECONDS)
    monitor.start()
    cluster.run_for(5 * MILLISECONDS)
    monitor.stop()
    count = len(monitor.samples)
    cluster.run_for(5 * MILLISECONDS)
    assert len(monitor.samples) == count


def test_monitor_restart_runs_a_single_tick_chain():
    """The regression this module's lifecycle fix targets: stop() used
    to leave the pending tick alive, so a stop->start cycle ran TWO
    chains and doubled the sample rate.  A restarted monitor must
    sample at exactly the configured interval."""
    import numpy as np

    cluster, server, _ = setup_cluster()
    flow = FluidFlow(opcode=Opcode.RDMA_READ, msg_size=4096)
    server.rnic.add_fluid_flow(flow)
    monitor = BandwidthMonitor(cluster.sim, server.rnic, flow,
                               interval_ns=MILLISECONDS)
    monitor.start()
    cluster.run_for(3.5 * MILLISECONDS)            # ticks at 1, 2, 3 ms
    monitor.stop()
    monitor.start()                                # next tick at 4.5 ms
    cluster.run_for(5 * MILLISECONDS)
    # 3 samples before the restart, 5 after — not 3 + 2x5 from a
    # doubled chain
    assert len(monitor.samples) == 8
    spacing = np.diff(monitor.times)
    # monotone spacing == interval everywhere except the restart gap;
    # a leaked second chain would interleave sub-interval gaps instead
    assert np.allclose(np.delete(spacing, 2), MILLISECONDS)
    assert spacing.min() >= MILLISECONDS - 1e-6


def test_monitor_stop_before_first_tick_cancels_it():
    cluster, server, _ = setup_cluster()
    flow = FluidFlow(opcode=Opcode.RDMA_READ, msg_size=64)
    server.rnic.add_fluid_flow(flow)
    monitor = BandwidthMonitor(cluster.sim, server.rnic, flow,
                               interval_ns=MILLISECONDS)
    monitor.start()
    monitor.stop()
    monitor.stop()                                 # idempotent
    cluster.run_for(3 * MILLISECONDS)
    assert monitor.samples == []
    assert cluster.sim.pending == 0                # nothing left queued


def test_monitor_double_start_rejected():
    cluster, server, _ = setup_cluster()
    flow = FluidFlow(opcode=Opcode.RDMA_READ, msg_size=64)
    server.rnic.add_fluid_flow(flow)
    monitor = BandwidthMonitor(cluster.sim, server.rnic, flow)
    monitor.start()
    with pytest.raises(RuntimeError):
        monitor.start()


def test_monitor_bad_interval():
    cluster, server, _ = setup_cluster()
    flow = FluidFlow(opcode=Opcode.RDMA_READ, msg_size=64)
    with pytest.raises(ValueError):
        BandwidthMonitor(cluster.sim, server.rnic, flow, interval_ns=0)


def test_counter_sampler_measures_rates():
    cluster, server, client = setup_cluster()
    conn = cluster.connect(client, server, max_send_wr=32)
    mr = server.reg_mr(1024 * 1024)
    sampler = CounterSampler(cluster.sim, client.rnic,
                             interval_ns=MILLISECONDS)
    sampler.start()

    def pump():
        while conn.cq.poll(8):
            pass
        while conn.qp.outstanding_send < 32:
            conn.post_read(mr, 0, 4096)
        cluster.sim.schedule(50_000.0, pump)

    cluster.sim.schedule(0.0, pump)
    cluster.run_for(10 * MILLISECONDS)
    rx_bps = sampler.series("rx_bps")
    assert len(rx_bps) >= 9
    assert max(rx_bps) > 0


def test_counter_sampler_restart_runs_a_single_tick_chain():
    """Same lifecycle regression as the bandwidth monitor, with an
    extra twist: two interleaved chains also race on ``_last`` and halve
    every reported rate.  After a restart the sampler must tick exactly
    once per interval."""
    import numpy as np

    cluster, server, _ = setup_cluster()
    sampler = CounterSampler(cluster.sim, server.rnic,
                             interval_ns=MILLISECONDS)
    sampler.start()
    cluster.run_for(3.5 * MILLISECONDS)
    sampler.stop()
    sampler.start()
    cluster.run_for(5 * MILLISECONDS)
    assert len(sampler.rates) == 8
    times = [r["time"] for r in sampler.rates]
    spacing = np.diff(times)
    assert np.allclose(np.delete(spacing, 2), MILLISECONDS)
    assert spacing.min() >= MILLISECONDS - 1e-6


def test_counter_sampler_rejects_unclassifiable_keys():
    """Explicit keys are validated at construction: a key the rate
    math cannot classify must fail loudly, not be silently misreported
    at the first tick."""
    cluster, server, _ = setup_cluster()
    with pytest.raises(ValueError, match="cannot classify"):
        CounterSampler(cluster.sim, server.rnic,
                       keys=["tx_bytes", "pause_events"])


def test_counter_sampler_selected_keys():
    cluster, server, _ = setup_cluster()
    sampler = CounterSampler(cluster.sim, server.rnic,
                             interval_ns=MILLISECONDS,
                             keys=["tx_bytes"])
    sampler.start()
    cluster.run_for(3 * MILLISECONDS)
    assert all(set(r) == {"time", "tx_bps"} for r in sampler.rates)

