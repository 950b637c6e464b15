"""Differential oracle for the closed-loop planner's lockstep sessions,
and for the probe under faults and interleavings.

A lockstep session (:class:`repro.covert.uli_channel._Session`) with
the planners switched off (``batch.FAST_PATH_ENABLED = False``, what
``REPRO_RNIC_BATCH=0`` sets) is the definition: a receiver and a sender
on separate hosts, each a :class:`~repro.covert.lockstep.PipelinedReader`
re-posting on every completion through the scalar pipeline, the
sender's targets switched by the frame's scheduled bit flips.  Each
example builds the same random session twice, planned and not, runs
``warm_up`` and ``run_frame``, and compares bit for bit: the warm-up
estimate, the session clock and frame start, both readers' samples,
the clock, every station of the three NICs, the translation units
(stats, banks, pipeline, history registers, caches, RNG), the NIC
counters, both QPs' and CQs' bookkeeping, the in-flight WQEs, the
session's cursors and bit, and every host's memory.  Both clusters then
run to drain with a dispatch hook recording every event, so the
pending events (time and order) and the resumed in-flight reads are
compared too.

Inputs cover CX-4/5/6, doorbells of 0 and 150 ns, queue and sender
depths, one to three targets per set on one or two MRs, random frames
and tails, an occasional ambient tenant (which declines), and
zero-jitter and whole-nanosecond specs on which exact event-time ties
occur: the readers' symmetric first reads tie at the responder in every
session, and these specs add ties the plan declines.

The probe fuzzer of ``test_closed_loop.py`` is extended here with fault
plans (bursty loss, a pause storm, RNR pressure) armed before the
measurement, and with scalar posts, a partial ``run(until=)`` or a full
drain before ``measure()``.
"""

import dataclasses
import hashlib
import itertools
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.covert.uli_channel as uli_channel
import repro.rnic.batch as batch
from repro.covert.uli_channel import (
    ULIChannelBase,
    ULIChannelConfig,
    _Session,
)
from repro.faults.plan import get_scenario
from repro.host import Cluster
from repro.sim.kernel import make_simulator_class
from repro.sim.units import gbps
from repro.telemetry import ProbeTarget
from repro.verbs.context import Context
from tests.properties.test_closed_loop import (
    ENGINES,
    MR_BYTES,
    SPECS,
    build,
    cases,
    observe,
    targets,
    wqe_seq,
)
from tests.properties.test_cohort_planner import unit_state

MEMORY_BYTES = 1 << 22
PATTERN = (bytes(range(251)) * (MEMORY_BYTES // 251 + 1))[:MEMORY_BYTES]


def neutral(counters):
    """A counters snapshot minus the planners' own path tallies."""
    return {key: value for key, value in counters.snapshot().items()
            if not key.startswith(("batch_", "closed_loop_", "lockstep_"))}


def spec_of(case):
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
    return spec


class FuzzChannel(ULIChannelBase):
    """A lockstep channel with drawn target sets."""

    name = "fuzz"

    def __init__(self, spec, config, rx, tx):
        super().__init__(spec, config)
        self.rx, self.tx, self.mrs = rx, tx, []

    def setup_server(self, server):
        self.mrs = [server.reg_mr(MR_BYTES, huge_pages=False)
                    for _ in range(2)]
        server.memory.write(server.memory.base, PATTERN)

    def _targets(self, drawn):
        return [ProbeTarget(self.mrs[index], offset, size)
                for index, offset, size in drawn]

    def receiver_targets(self):
        return self._targets(self.rx)

    def sender_targets(self, bit):
        return self._targets(self.tx[bit])


def small_cluster(sim_class):
    """``Cluster`` on the given event core, with small host memories."""

    class SmallCluster(Cluster):
        def __init__(self, seed=0):
            super().__init__(seed)
            self.sim = sim_class(seed=seed)  # swap before any host

        def add_host(self, name, spec=None, memory_size=MEMORY_BYTES,
                     link=None):
            return super().add_host(name, spec=spec,
                                    memory_size=memory_size, link=link)

    return SmallCluster


base = {
    "seed": st.integers(min_value=0, max_value=2**32),
    "warmup": st.integers(min_value=4, max_value=40),
    "samples_per_bit": st.integers(min_value=2, max_value=6),
    "frame": st.lists(st.integers(min_value=0, max_value=1), max_size=10),
    "tail": st.sampled_from([0.0, 0.5, 1.0, 1.5]),
    "ambient": st.sampled_from([0, 0, 0, 0, 0, 0, 0, 2]),
}
sessions = st.one_of(
    st.fixed_dictionaries({
        **base,
        "spec": st.sampled_from(sorted(SPECS)),
        "zero_jitter": st.booleans(),
        "integer_rates": st.booleans(),
        "doorbell_ns": st.sampled_from([0.0, 150.0]),
        "rx": st.lists(targets(), min_size=1, max_size=3),
        "tx": st.tuples(st.lists(targets(), min_size=1, max_size=3),
                        st.lists(targets(), min_size=1, max_size=3)),
        "max_send_queue": st.integers(min_value=1, max_value=12),
        "sender_depth": st.integers(min_value=1, max_value=12),
    }),
    # whole-nanosecond, jitter-free specs with a few fixed targets: exact
    # ties at the requester's PCIe engine, against bit flips and among
    # the reads left in flight
    st.fixed_dictionaries({
        **base,
        "spec": st.just("CX-5"),
        "zero_jitter": st.just(True),
        "integer_rates": st.booleans(),
        "doorbell_ns": st.sampled_from([0.0, 80.0, 105.0, 380.0]),
        "rx": st.sampled_from([[(0, 0, 64)], [(0, 0, 64), (0, 512, 64)]]),
        "tx": st.sampled_from([([(0, 1024, 64)], [(1, 1024, 64)]),
                               ([(0, 1024, 64)], [(0, 1279, 64)])]),
        "max_send_queue": st.integers(min_value=2, max_value=8),
        "sender_depth": st.integers(min_value=1, max_value=8),
    }),
)


def session_state(session, seq0):
    cluster = session.cluster
    hosts = [cluster.hosts[name] for name in sorted(cluster.hosts)]
    readers = (session.receiver, session.sender)
    return (
        cluster.sim.now,
        cluster.sim.pending,
        session.now,
        session.current_bit[0],
        list(session._posts),
        [(reader.samples, reader.completed, reader._running)
         for reader in readers],
        [neutral(host.rnic.counters) for host in hosts],
        [(st.name, st.busy_until, st.served, st.busy_ns, st.wait_ns)
         for host in hosts
         for st in (host.rnic.pcie, host.rnic.txpu, host.rnic.rxpu,
                    host.rnic.wire_tx)],
        [(unit_state(unit), unit._last_mr, unit._last_seg_mr,
          unit._last_seg_idx, unit._last_line_mr, unit._last_line_idx)
         for unit in (host.rnic.translation for host in hosts)],
        [(qp.outstanding_send, qp.total_posted, qp.total_completed,
          qp.bytes_posted, list(qp.opcode_counts.items()),
          list(qp.size_counts.items()), qp.state,
          len(qp.send_cq), qp.send_cq.total_completions, conn._wr_ids,
          [(wr.wr_id, wr.seq - seq0, wr.local_addr, wr.length,
            wr.remote_addr, wr.rkey, wr.post_time, wr.complete_time,
            wr.queue_ahead, wr.flushed)
           for wr in qp._inflight_sends.values()])
         for conn in (reader.conn for reader in readers)
         for qp in (conn.qp,)],
        [hashlib.sha256(host.memory.read(host.memory.base,
                                         host.memory.size)).hexdigest()
         for host in hosts],
    )


def run_session(sim_class, case, enabled):
    """warm_up, run_frame, drain; everything observed on the way."""
    config = ULIChannelConfig(
        msg_size=64, max_send_queue=case["max_send_queue"],
        sender_depth=case["sender_depth"],
        samples_per_bit=case["samples_per_bit"],
        warmup_completions=case["warmup"], ambient_depth=case["ambient"])
    channel = FuzzChannel(spec_of(case), config, case["rx"], case["tx"])
    seq0 = wqe_seq()
    with mock.patch.object(batch, "FAST_PATH_ENABLED", enabled), \
            mock.patch.object(uli_channel, "Cluster",
                              small_cluster(sim_class)):
        # rkeys name the MPT/MTT cache sets: both runs get the same ones
        with mock.patch.object(Context, "_rkey_counter",
                               itertools.count(0x1000)):
            session = _Session(channel, case["seed"])
        for host in session.cluster.hosts.values():
            if host.name != "server":
                host.memory.write(host.memory.base, PATTERN)
        inter = session.warm_up(case["warmup"])
        warm = (inter, session.now, list(session.receiver.samples),
                list(session.sender.samples), session.sender.completed)
        period = case["samples_per_bit"] * inter
        start = session.run_frame(list(case["frame"]), period,
                                  case["tail"] * period)
        at_cut = session_state(session, seq0)
        if session.ambient is not None:
            session.ambient.stop()
        sim = session.cluster.sim
        fired = []
        hook = lambda time, priority, callback: fired.append(  # noqa: E731
            (time, priority, callback.__qualname__))
        sim.add_dispatch_hook(hook)
        sim.run()
        sim.remove_dispatch_hook(hook)
        drained = session_state(session, seq0)
    counters = session.receiver.conn.qp.context.engine.counters
    return (warm, start, at_cut, fired, drained), counters


@pytest.mark.parametrize("core", ENGINES)
def test_lockstep_matches_scalar_session(core):
    sim_class = make_simulator_class(core)
    tally = Counter()

    # derandomized: the tally below is a verdict on a fixed example set
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=sessions)
    def check(case):
        scalar, _ = run_session(sim_class, case, False)
        planned, counters = run_session(sim_class, case, True)
        tally["planned"] += counters.lockstep_runs
        tally.update(counters.batch_fallbacks)
        assert planned == scalar

    check()
    # the oracle must compare the planner with the scalar session, and
    # reach its tie and ambient declines
    assert tally["planned"] >= sum(tally.values()) // 2, tally
    assert tally["tie"] and tally["not_quiescent"], tally


# ----------------------------------------------------------------------
# The probe under fault plans and post/run interleavings
# ----------------------------------------------------------------------
probe_cases = st.tuples(
    cases,
    st.sampled_from([None, "bursty-loss", "pause-storm", "rnr-pressure"]),
    st.sampled_from([None, "posts", "partial", "drained"]),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=100.0, max_value=5000.0),
)


def run_probe(sim_class, drawn, enabled):
    """Arm the fault plan, run the prelude, measure twice around a
    drain; everything observed on the way."""
    case, fault, prelude, posts, partial_ns = drawn
    cluster, server, client, conn, probe = build(sim_class, case)
    sim = cluster.sim
    seq0 = wqe_seq()
    armed = None
    with mock.patch.object(batch, "FAST_PATH_ENABLED", enabled):
        if fault is not None:
            with mock.patch.object(Context, "_rkey_counter",
                                   itertools.count(0x2000)):
                armed = get_scenario(fault).install(
                    cluster, server=server, endpoints=[client])
        if prelude is not None:
            target = probe.targets[0]
            for _ in range(min(posts, case["max_send_wr"])):
                conn.post_read(target.mr, target.offset, target.size)
            if prelude == "partial":
                sim.run(until=sim.now + partial_ns)
            elif prelude == "drained":
                if armed is not None:
                    armed.stop()
                sim.run()
                conn.cq.drain()

        def measure():
            try:
                return probe.measure(case["samples"],
                                     warmup=case["warmup"]).tobytes()
            except (RuntimeError, TimeoutError) as error:
                return repr(error)

        first = measure()
        at_return = observe(cluster, server, client, conn, probe, seq0)
        if armed is not None:
            armed.stop()
        fired = []
        hook = lambda time, priority, callback: fired.append(  # noqa: E731
            (time, priority, callback.__qualname__))
        sim.add_dispatch_hook(hook)
        sim.run()
        sim.remove_dispatch_hook(hook)
        conn.cq.drain()
        drained = observe(cluster, server, client, conn, probe, seq0)
        second = measure()
        again = observe(cluster, server, client, conn, probe, seq0)
    return (first, at_return, fired, drained, second, again), \
        client.rnic.counters


@pytest.mark.parametrize("core", ENGINES)
def test_closed_loop_matches_scalar_probe_under_faults(core):
    sim_class = make_simulator_class(core)
    tally = Counter()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(drawn=probe_cases)
    def check(drawn):
        scalar, _ = run_probe(sim_class, drawn, False)
        planned, counters = run_probe(sim_class, drawn, True)
        tally["taken"] += counters.closed_loop_runs
        tally.update(counters.batch_fallbacks)
        assert planned == scalar

    check()
    # each fault plan and the interleavings decline with their reasons;
    # a drained prelude and the second measure still plan
    assert tally["taken"], tally
    assert tally["lossy"] and tally["not_quiescent"], tally
