"""Edge-case tests across modules (branches thinner suites miss)."""

import numpy as np
import pytest

from repro.host import Cluster
from repro.rnic import cx5
from repro.verbs import ImmediateEngine


def make_conn(**kwargs):
    cluster = Cluster(seed=0)
    server = cluster.add_host("server", spec=cx5())
    client = cluster.add_host("client", spec=cx5())
    conn = cluster.connect(client, server, **kwargs)
    mr = server.reg_mr(4096)
    return cluster, server, conn, mr


class TestConnectionHelpers:
    def test_post_atomic_requires_operands(self):
        _, _, conn, mr = make_conn()
        with pytest.raises(ValueError):
            conn.post_atomic(mr, 0)
        with pytest.raises(ValueError):
            conn.post_atomic(mr, 0, compare=1)  # swap missing

    def test_duplicate_host_name_rejected(self):
        cluster = Cluster(seed=0)
        cluster.add_host("a", spec=cx5())
        with pytest.raises(ValueError):
            cluster.add_host("a", spec=cx5())

    def test_run_for_advances_clock(self):
        cluster = Cluster(seed=0)
        cluster.run_for(12345.0)
        assert cluster.sim.now == 12345.0


class TestImmediateEngine:
    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            ImmediateEngine(latency=-1.0)

    def test_clock_advances_per_operation(self):
        from repro.verbs import AccessFlags, Context, Opcode, SendWR

        engine = ImmediateEngine(latency=10.0)
        a, b = Context(engine=engine), Context(engine=engine)
        qa = a.create_qp(a.alloc_pd(), a.create_cq())
        qb = b.create_qp(b.alloc_pd(), b.create_cq())
        qa.connect(qb)
        mr = b.reg_mr(b.pds[0], 64, access=AccessFlags.all_remote())
        local = a.reg_mr(a.pds[0], 64)
        for expected in (10.0, 20.0):
            qa.post_send(SendWR(opcode=Opcode.RDMA_READ,
                                local_addr=local.addr, length=8,
                                remote_addr=mr.addr, rkey=mr.rkey))
            assert engine.now == expected


class TestFingerprintCalibration:
    def test_flat_trace_rejected(self):
        from repro.side.fingerprint import _extract_core

        with pytest.raises(ValueError):
            _extract_core("shuffle", np.ones(50) * 100.0)

    def test_join_core_without_three_edges_falls_back(self):
        from repro.side.fingerprint import _extract_core

        values = np.concatenate([np.ones(10) * 100, np.ones(30) * 10])
        core = _extract_core("join", values)
        assert 0 < len(core) <= len(values)


class TestTrainerExtras:
    def test_log_callback_invoked(self):
        from repro.ml import Adam, Trainer
        from repro.ml.layers import Dense, Sequential

        model = Sequential(Dense(2, 2))
        trainer = Trainer(model, Adam(model), batch_size=4)
        seen = []
        trainer.fit(np.zeros((8, 2)), np.zeros(8, dtype=int), epochs=2,
                    log=seen.append)
        assert len(seen) == 2
        assert seen[0].epoch == 0
        assert trainer.history == seen

    def test_resnet_bad_head_rejected(self):
        from repro.ml import ResNet1d

        with pytest.raises(ValueError):
            ResNet1d(in_channels=1, num_classes=2, head="avgmax")


class TestMultiClientTreeConsistency:
    def test_interleaved_clients_leave_valid_tree(self):
        from repro.apps.sherman import (
            ShermanClient,
            ShermanMemoryServer,
            validate_tree,
        )
        from repro.sim.units import MEBIBYTE

        cluster = Cluster(seed=0)
        ms = cluster.add_host("ms", spec=cx5())
        server = ShermanMemoryServer(ms, region_size=16 * MEBIBYTE)
        clients = []
        for i in range(3):
            cs = cluster.add_host(f"cs{i}", spec=cx5())
            clients.append(ShermanClient(cluster.connect(cs, ms), server,
                                         client_id=i + 1))
        rng = np.random.default_rng(1)
        live = set()
        for step in range(300):
            client = clients[step % 3]
            key = int(rng.integers(1, 500))
            if rng.random() < 0.7:
                client.insert(key, b"v")
                live.add(key)
            else:
                client.update(key, b"w")
        stats = validate_tree(server)
        assert stats.entries == len(live)
