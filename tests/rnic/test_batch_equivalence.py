"""Equivalence suite for the batched message-descriptor fast path.

The contract under test: for every workload where the planner engages,
the batched path is *byte-identical* to the scalar per-message pipeline
— CQE payloads and order, NIC counters, station accumulators,
translation state (including its RNG stream), host memory bytes and the
final clock.  Where the planner cannot prove that (faults, loss,
mixed-validity cohorts, observability hooks), it must decline and the
scalar path must produce exactly what it always did.

Every test runs against each available engine core (the pure-Python
event core and, when built, the C extension) via
:func:`repro.sim.kernel.make_simulator_class`; one subprocess test
additionally pins the ``REPRO_SIM_ENGINE=python`` configuration.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import repro.rnic.batch as batch
import repro.rnic.rnic as rnic_mod
from repro.faults.plan import get_scenario
from repro.host import Cluster
from repro.rnic import cx5
from repro.sim.event import PyEventCore
from repro.sim.kernel import make_simulator_class
from repro.verbs import Opcode, SendWR
from repro.verbs.engine import precheck_one_sided
from repro.verbs.enums import WCStatus

CORES = [PyEventCore]
try:
    from repro.sim import _speedups

    CORES.append(_speedups.EventCore)
except ImportError:
    pass

SIM_CLASSES = {core.__name__: make_simulator_class(core) for core in CORES}


@pytest.fixture(params=sorted(SIM_CLASSES), ids=sorted(SIM_CLASSES))
def sim_class(request):
    return SIM_CLASSES[request.param]


@pytest.fixture
def fast_path(monkeypatch):
    """Force the fast path ON and spy on every planner verdict."""
    verdicts = []
    real = batch.try_fast_path

    def spy(rnic, qp, wrs):
        took = real(rnic, qp, wrs)
        verdicts.append(took)
        return took

    monkeypatch.setattr(batch, "FAST_PATH_ENABLED", True)
    monkeypatch.setattr(rnic_mod, "try_fast_path", spy)
    return verdicts


def build(sim_class, seed=0, max_send_wr=512):
    cluster = Cluster(seed=seed)
    cluster.sim = sim_class(seed=seed)  # swap the core before any host
    server = cluster.add_host("server", spec=cx5())
    client = cluster.add_host("client", spec=cx5())
    conn = cluster.connect(client, server, max_send_wr=max_send_wr)
    mr = server.reg_mr(1 << 20)
    return cluster, server, client, conn, mr


def path_neutral(counters):
    """A counters snapshot minus the planners' own path tallies
    (``batch_fast_cohorts`` / ``closed_loop_runs`` /
    ``batch_fallback_<reason>``), which by design differ between the
    paths."""
    return {key: value for key, value in counters.snapshot().items()
            if not key.startswith(("batch_", "closed_loop_"))}


def fingerprint(cluster, client, server, conn, cqes):
    """Everything the two paths must agree on, hashed and raw.

    The digest plays the role the kernel's determinism trace plays for
    the engine-equivalence suite: one opaque value that moves if any
    byte of the observable outcome moves.
    """
    stations = []
    for nic in (client.rnic, server.rnic):
        for st in (nic.pcie, nic.txpu, nic.rxpu, nic.wire_tx):
            stations.append(
                (st.name, st.busy_until, st.served, st.busy_ns, st.wait_ns)
            )
    state = (
        [
            (c.wr_id, c.status, c.opcode, c.byte_len, c.post_time,
             c.complete_time, c.queue_ahead)
            for c in cqes
        ],
        repr(path_neutral(client.rnic.counters)),
        repr(path_neutral(server.rnic.counters)),
        stations,
        repr(server.rnic.translation.stats),
        server.rnic.translation.rng.bit_generator.state,
        cluster.sim.now,
        server.memory.read(server.memory.base, 4096),
    )
    return state, hashlib.sha256(repr(state).encode()).hexdigest()


def run_uniform(sim_class, enabled, rounds=4, width=64, signal_every=1):
    cluster, server, client, conn, mr = build(sim_class)
    batch.FAST_PATH_ENABLED = enabled
    cqes = []
    for r in range(rounds):
        offs = [((r * 37 + i * 97) % 4096) * 8 for i in range(width)]
        wrs = conn.post_read_batch(mr, offs, signal_every=signal_every)
        nsig = sum(1 for w in wrs if w.signaled)
        cqes.extend(conn.await_completions(nsig))
        cluster.sim.run()  # drain any trailing unsignaled completions
    return fingerprint(cluster, client, server, conn, cqes), \
        cluster.sim.events_fired


def mixed_cohort(conn, mr, count=24):
    wrs = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            wrs.append(SendWR(
                opcode=Opcode.RDMA_READ, local_addr=conn.local_mr.addr,
                length=256, remote_addr=mr.addr + i * 64, rkey=mr.rkey,
                wr_id=100 + i))
        elif kind == 1:
            wrs.append(SendWR(
                opcode=Opcode.RDMA_WRITE, local_addr=conn.local_mr.addr,
                length=96, remote_addr=mr.addr + i * 64, rkey=mr.rkey,
                wr_id=100 + i))
        else:
            wrs.append(SendWR(
                opcode=Opcode.ATOMIC_FETCH_ADD,
                local_addr=conn.local_mr.addr,
                remote_addr=mr.addr + 2048 + i * 8, rkey=mr.rkey,
                compare_add=3, wr_id=100 + i))
    return wrs


class TestByteIdentity:
    def test_uniform_read_cohorts(self, sim_class, fast_path):
        (scalar, _), fired_scalar = run_uniform(sim_class, enabled=False)
        (batched, _), fired_batched = run_uniform(sim_class, enabled=True)
        assert fast_path.count(True) == 4
        assert batched == scalar
        # the point of the plan: the kernel dispatches only completion
        # events, not the ~10-events-per-message scalar pipeline
        assert fired_batched < fired_scalar / 3

    def test_selective_signaling(self, sim_class, fast_path):
        (scalar, dig_s), _ = run_uniform(
            sim_class, enabled=False, signal_every=16)
        (batched, dig_b), _ = run_uniform(
            sim_class, enabled=True, signal_every=16)
        assert fast_path.count(True) == 4
        assert dig_b == dig_s and batched == scalar

    def test_mixed_opcode_cohort(self, sim_class, fast_path):
        def run(enabled):
            cluster, server, client, conn, mr = build(sim_class)
            batch.FAST_PATH_ENABLED = enabled
            conn.qp.post_send_batch(mixed_cohort(conn, mr))
            cqes = conn.await_completions(24)
            return fingerprint(cluster, client, server, conn, cqes)

        scalar, dig_s = run(False)
        batched, dig_b = run(True)
        assert fast_path == [False, True]  # kill switch off, then on
        assert dig_b == dig_s and batched == scalar

    def test_back_to_back_cohorts_accumulate_history(self, sim_class,
                                                     fast_path):
        """Station horizons, translation caches and RNG streams carry
        across cohorts; a second cohort must replay scalar history, not
        restart from a clean slate."""
        (scalar, _), _ = run_uniform(sim_class, enabled=False, rounds=6,
                                     width=32)
        (batched, _), _ = run_uniform(sim_class, enabled=True, rounds=6,
                                      width=32)
        assert fast_path.count(True) == 6
        assert batched == scalar


class TestFallback:
    def test_planner_declines_are_harmless(self, sim_class, fast_path):
        """A cohort the planner rejects (here: below MIN_BATCH after a
        quiescence failure is impossible, so use an in-flight post)
        still completes exactly like the scalar path."""

        def run(enabled):
            cluster, server, client, conn, mr = build(sim_class)
            batch.FAST_PATH_ENABLED = enabled
            conn.post_read(mr, 0, 64)  # leaves the simulator non-quiescent
            conn.post_read_batch(mr, [64 * i for i in range(16)])
            cqes = conn.await_completions(17)
            return fingerprint(cluster, client, server, conn, cqes)

        scalar, _ = run(False)
        batched, _ = run(True)
        assert True not in fast_path  # quiescence check declined both
        assert batched == scalar

    def test_faulted_wqe_mid_batch_forces_scalar_fallback(self, sim_class,
                                                          fast_path):
        """A WQE that would complete with an error CQE sits mid-cohort:
        the planner must decline (its eligibility proof fails on that
        WQE) and the scalar path delivers the error + flush sequence —
        identically with the fast path enabled or disabled."""

        def run(enabled):
            cluster, server, client, conn, mr = build(sim_class)
            batch.FAST_PATH_ENABLED = enabled
            wrs = [
                SendWR(opcode=Opcode.RDMA_READ,
                       local_addr=conn.local_mr.addr, length=64,
                       remote_addr=mr.addr + 64 * i, rkey=mr.rkey,
                       wr_id=i)
                for i in range(12)
            ]
            # out-of-bounds remote address in the middle of the cohort
            wrs[5] = SendWR(opcode=Opcode.RDMA_READ,
                            local_addr=conn.local_mr.addr, length=64,
                            remote_addr=mr.end - 8, rkey=mr.rkey, wr_id=5)
            conn.qp.post_send_batch(wrs)
            cqes = conn.await_completions(12)
            return fingerprint(cluster, client, server, conn, cqes)

        scalar, _ = run(False)
        batched, _ = run(True)
        assert True not in fast_path
        assert batched == scalar
        statuses = [c[1] for c in scalar[0]]
        assert WCStatus.REM_ACCESS_ERR in statuses
        assert WCStatus.WR_FLUSH_ERR in statuses

    def test_trace_digest_pins_the_scalar_event_stream(self, sim_class,
                                                       fast_path):
        """With the determinism trace enabled the planner must decline:
        the digest folds every dispatched event, and the fast path
        deliberately does not dispatch the scalar stream."""
        cluster, server, client, conn, mr = build(sim_class)
        cluster.sim.enable_tracing()
        conn.post_read_batch(mr, [64 * i for i in range(16)])
        conn.await_completions(16)
        assert True not in fast_path
        assert cluster.sim.trace_digest is not None

    @pytest.mark.parametrize("scenario",
                             ["bursty-loss", "pause-storm", "rnr-pressure"])
    def test_fault_scenarios_complete_via_fallback(self, sim_class,
                                                   fast_path, scenario):
        """Armed fault plans (loss, PFC storms, RNR pressure) make the
        path unprovable; cohorts must fall back and still complete."""
        cluster, server, client, conn, mr = build(sim_class)
        plan = get_scenario(scenario)
        armed = plan.install(cluster, server=server, endpoints=[client])
        cqes = []
        for r in range(3):
            conn.post_read_batch(mr, [64 * i for i in range(16)])
            cqes.extend(conn.await_completions(16))
        armed.stop()
        assert len(cqes) == 48
        assert all(c.ok for c in cqes)
        # loss/storm scenarios taint the network or leave injector
        # events pending; RNR pressure keeps the sim non-quiescent
        assert True not in fast_path


    @pytest.mark.xfail(strict=True, reason="ROADMAP 1(b)")
    def test_post_before_drain_interleaves_exactly(self, sim_class,
                                                   fast_path):
        """Known divergence: a scalar post made before a committed
        cohort drains queues behind the cohort's planned horizons, so
        it completes later than on the scalar path (here wr 99 at
        13,522.27 ns instead of 10,757.03 ns).  The barrier contract
        in ``post_send_batch`` excludes this shape; the fix flips this
        test."""

        def run(enabled):
            cluster, server, client, conn, mr = build(sim_class)
            batch.FAST_PATH_ENABLED = enabled
            conn.post_read_batch(mr, [64 * i for i in range(16)])
            conn.qp.post_send(SendWR(
                opcode=Opcode.RDMA_READ, local_addr=conn.local_mr.addr,
                length=64, remote_addr=mr.addr + 4096, rkey=mr.rkey,
                wr_id=99))
            cqes = conn.await_completions(17)
            return fingerprint(cluster, client, server, conn, cqes)

        scalar, _ = run(False)
        batched, _ = run(True)
        assert fast_path == [False, True]
        assert batched == scalar


class TestPrecheckAgreement:
    """The fused eligibility proof inside the planner and
    :func:`precheck_one_sided` are twins; they must agree on every
    would-be remote fault."""

    @staticmethod
    def eligible_pair(conn, mr, bad_wr):
        good = SendWR(opcode=Opcode.RDMA_READ,
                      local_addr=conn.local_mr.addr, length=64,
                      remote_addr=mr.addr, rkey=mr.rkey, wr_id=1)
        return [good, bad_wr]

    @pytest.mark.parametrize("fault", ["oob_low", "oob_high", "bad_flags"])
    def test_remote_faults_decline(self, sim_class, fast_path, fault):
        cluster, server, client, conn, mr = build(sim_class)
        from repro.verbs.enums import AccessFlags

        if fault == "bad_flags":
            target = server.reg_mr(4096, access=AccessFlags.LOCAL_WRITE)
            wr = SendWR(opcode=Opcode.RDMA_READ,
                        local_addr=conn.local_mr.addr, length=64,
                        remote_addr=target.addr, rkey=target.rkey, wr_id=2)
        elif fault == "oob_low":
            wr = SendWR(opcode=Opcode.RDMA_READ,
                        local_addr=conn.local_mr.addr, length=64,
                        remote_addr=mr.addr - 8, rkey=mr.rkey, wr_id=2)
        else:
            wr = SendWR(opcode=Opcode.RDMA_READ,
                        local_addr=conn.local_mr.addr, length=128,
                        remote_addr=mr.end - 64, rkey=mr.rkey, wr_id=2)
        assert precheck_one_sided(conn.qp, wr) is not WCStatus.SUCCESS
        took = batch.try_fast_path(
            client.rnic, conn.qp, self.eligible_pair(conn, mr, wr))
        assert took is False

    def test_success_precheck_accepts(self, sim_class, fast_path):
        cluster, server, client, conn, mr = build(sim_class)
        wr = SendWR(opcode=Opcode.RDMA_READ,
                    local_addr=conn.local_mr.addr, length=64,
                    remote_addr=mr.addr + 128, rkey=mr.rkey, wr_id=2)
        assert precheck_one_sided(conn.qp, wr) is WCStatus.SUCCESS
        conn.qp.post_send_batch(self.eligible_pair(conn, mr, wr))
        assert fast_path == [True]
        cluster.sim.run()  # drain the committed cohort


def test_python_engine_configuration_is_identical():
    """The REPRO_SIM_ENGINE=python configuration (the pure-Python event
    core) produces the same scalar/batched agreement, in a pinned
    subprocess."""
    code = (
        "import repro.rnic.batch as batch\n"
        "from repro.sim.kernel import KERNEL_ENGINE\n"
        "assert KERNEL_ENGINE == 'python', KERNEL_ENGINE\n"
        "from tests.rnic.test_batch_equivalence import run_uniform\n"
        "from repro.sim.kernel import Simulator\n"
        "(s, _), _ = run_uniform(Simulator, False, rounds=2, width=32)\n"
        "(b, _), _ = run_uniform(Simulator, True, rounds=2, width=32)\n"
        "assert b == s, 'python-engine scalar/batched divergence'\n"
        "print('ok')\n"
    )
    env = dict(os.environ)
    env["REPRO_SIM_ENGINE"] = "python"
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
