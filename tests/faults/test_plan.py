"""Tests for fault plans, the scenario catalogue and the injectors."""

import pytest

from repro.faults import (
    FaultPlan,
    GilbertElliott,
    PauseStorm,
    PauseStormInjector,
    RnrPressure,
    RnrPressureClient,
    SCENARIOS,
    get_scenario,
)
from repro.host import Cluster
from repro.rnic import cx5
from repro.rnic.station import ServiceStation


def make_cluster(seed=0):
    cluster = Cluster(seed=seed)
    server = cluster.add_host("server", spec=cx5())
    client = cluster.add_host("client", spec=cx5())
    return cluster, server, client


class TestCatalogue:
    def test_every_scenario_builds(self):
        for name in SCENARIOS:
            plan = get_scenario(name)
            assert plan.name == name

    def test_unknown_scenario_names_the_known_ones(self):
        with pytest.raises(KeyError, match="bursty-loss"):
            get_scenario("no-such-scenario")

    def test_lookups_are_independent_plans(self):
        assert get_scenario("bursty-loss") is not get_scenario("bursty-loss")

    def test_expected_catalogue_members(self):
        assert {"clean", "bursty-loss", "pause-storm",
                "rnr-pressure", "link-flap"} <= set(SCENARIOS)


class TestInstall:
    def test_endpoint_faults_get_fresh_instances(self):
        cluster, server, client = make_cluster()
        plan = FaultPlan(name="loss", endpoint_fault=GilbertElliott)
        plan.install(cluster, server=server, endpoints=[client])
        installed = cluster.network._faults.get(client.rnic)
        assert isinstance(installed, GilbertElliott)
        # a second install arms a different instance (no shared state)
        plan.install(cluster, server=server, endpoints=[client])
        assert cluster.network._faults.get(client.rnic) is not installed

    def test_server_fault_lands_on_server_link(self):
        cluster, server, client = make_cluster()
        plan = FaultPlan(name="loss", server_fault=GilbertElliott)
        plan.install(cluster, server=server, endpoints=[client])
        assert cluster.network._faults.get(server.rnic) is not None
        assert cluster.network._faults.get(client.rnic) is None

    def test_clean_plan_installs_nothing(self):
        cluster, server, client = make_cluster()
        before = cluster.sim.events_fired
        get_scenario("clean").install(cluster, server=server,
                                      endpoints=[client])
        assert cluster.network._faults.get(server.rnic) is None
        assert cluster.network._faults.get(client.rnic) is None
        assert cluster.sim.events_fired == before

    def test_install_without_server_degrades(self):
        """A plan with only server-side parts arms nothing when the
        topology has no server to arm them on."""
        cluster, _, client = make_cluster()
        before = cluster.sim.events_fired
        get_scenario("rnr-pressure").install(cluster, endpoints=[client])
        cluster.sim.run(until=1_000_000.0)
        assert cluster.sim.events_fired == before  # nothing was scheduled


class TestPauseStorm:
    def test_validation(self):
        with pytest.raises(ValueError):
            PauseStorm(period_ns=0.0)
        with pytest.raises(ValueError):
            PauseStorm(pause_ns=-1.0)
        with pytest.raises(ValueError):
            PauseStorm(count=-1)

    def test_storm_stalls_wire_tx_and_counts(self):
        cluster, server, _ = make_cluster()
        storm = PauseStorm(start_ns=1000.0, period_ns=5000.0,
                           pause_ns=2000.0, count=3)
        PauseStormInjector(cluster, [server], storm).start()
        cluster.sim.run(until=50_000.0)
        assert server.rnic.counters.pause_events == 3
        # the last pause ended at 11000 + 2000; service resumed after
        assert server.rnic.wire_tx.admit(20_000.0, 10.0) == 20_010.0

    def test_stall_delays_service_start(self):
        station = ServiceStation("wire_tx")
        station.stall_until(500.0)
        # admitted during the pause: service starts when the pause ends
        assert station.admit(100.0, 10.0) == 510.0
        # a stall never rewinds an existing busy horizon
        station.stall_until(200.0)
        assert station.admit(510.0, 10.0) == 520.0

    def test_count_zero_runs_forever(self):
        cluster, server, _ = make_cluster()
        storm = PauseStorm(start_ns=0.0, period_ns=1000.0, pause_ns=10.0)
        PauseStormInjector(cluster, [server], storm).start()
        cluster.sim.run(until=100_000.0)
        assert server.rnic.counters.pause_events >= 100

    def test_stop_cancels_the_pending_burst(self):
        """An unbounded storm must die with stop(): the pending burst
        is cancelled, so the sim drains instead of pausing forever."""
        cluster, server, _ = make_cluster()
        storm = PauseStorm(start_ns=0.0, period_ns=1000.0, pause_ns=10.0)
        injector = PauseStormInjector(cluster, [server], storm)
        injector.start()
        cluster.sim.run(until=5_500.0)
        injector.stop()
        fired = injector.fired
        cluster.sim.run()                           # drains: queue is empty
        assert injector.fired == fired
        assert cluster.sim.pending == 0

    def test_restart_runs_a_single_storm(self):
        """A stop->start cycle must leave exactly one burst chain: the
        restarted run produces the same burst count as a never-stopped
        control run of the same seeded scenario."""
        def bursts(restart):
            cluster, server, _ = make_cluster()
            storm = PauseStorm(start_ns=5_000.0, period_ns=1000.0,
                               pause_ns=10.0)
            injector = PauseStormInjector(cluster, [server], storm)
            injector.start()
            if restart:
                cluster.sim.run(until=2_000.0)
                injector.stop()
                injector.start()
            cluster.sim.run(until=20_000.0)
            return server.rnic.counters.pause_events

        assert bursts(restart=True) == bursts(restart=False) > 0

    def test_double_start_rejected(self):
        cluster, server, _ = make_cluster()
        injector = PauseStormInjector(cluster, [server], PauseStorm())
        injector.start()
        with pytest.raises(RuntimeError):
            injector.start()


class TestRnrPressure:
    def test_validation(self):
        with pytest.raises(ValueError):
            RnrPressure(depth=0)
        with pytest.raises(ValueError):
            RnrPressure(replenish_ns=0.0)

    def test_pressure_generates_rnr_naks(self):
        cluster, server, _ = make_cluster()
        client = RnrPressureClient(cluster, server, RnrPressure())
        client.start()
        cluster.sim.run(until=2_000_000.0)
        pressure_host = cluster.hosts[RnrPressureClient.HOST_NAME]
        assert pressure_host.rnic.counters.rnr_naks > 0
        assert client.completed > 0  # some SENDs do land between NAKs

    def test_pressure_survives_budget_exhaustion(self):
        """Exhausting the RNR budget flushes the QP; the client
        reconnects and the NAK rate keeps climbing instead of dying."""
        cluster, server, _ = make_cluster()
        client = RnrPressureClient(cluster, server, RnrPressure())
        client.start()
        cluster.sim.run(until=2_000_000.0)
        pressure_host = cluster.hosts[RnrPressureClient.HOST_NAME]
        assert client.reconnects > 0
        naks_mid = pressure_host.rnic.counters.rnr_naks
        cluster.sim.run(until=4_000_000.0)
        assert pressure_host.rnic.counters.rnr_naks > naks_mid

    def test_reconnect_does_not_leak_memory_registrations(self):
        cluster, server, _ = make_cluster()
        client = RnrPressureClient(cluster, server, RnrPressure())
        client.start()
        host = cluster.hosts[RnrPressureClient.HOST_NAME]
        registered = len(host.pd.mrs)
        cluster.sim.run(until=4_000_000.0)
        assert client.reconnects > 0
        assert len(host.pd.mrs) == registered

    def test_stop_quiesces_the_workload(self):
        """stop() cancels the replenish chain and any pending
        reconnect; in-flight work drains and the sim goes idle instead
        of the pressure running forever."""
        cluster, server, _ = make_cluster()
        client = RnrPressureClient(cluster, server, RnrPressure())
        client.start()
        cluster.sim.run(until=500_000.0)
        client.stop()
        cluster.sim.run()                           # must drain
        assert cluster.sim.pending == 0
        completed = client.completed
        naks = cluster.hosts[
            RnrPressureClient.HOST_NAME].rnic.counters.rnr_naks
        cluster.sim.run(until=cluster.sim.now + 1_000_000.0)
        assert client.completed == completed
        assert cluster.hosts[
            RnrPressureClient.HOST_NAME].rnic.counters.rnr_naks == naks


class TestArmedFaults:
    def test_install_returns_stoppable_handles(self):
        cluster, server, client = make_cluster()
        armed = get_scenario("pause-storm").install(
            cluster, server=server, endpoints=[client])
        assert armed.pause_storm is not None
        assert armed.rnr_pressure is None
        cluster.sim.run(until=500_000.0)
        armed.stop()                                # idempotent surface
        armed.stop()
        cluster.sim.run()
        assert cluster.sim.pending == 0

    def test_clean_install_returns_empty_armed_set(self):
        cluster, server, client = make_cluster()
        armed = get_scenario("clean").install(
            cluster, server=server, endpoints=[client])
        assert armed.pause_storm is None and armed.rnr_pressure is None
        armed.stop()                                # no-op, no crash
