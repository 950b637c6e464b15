"""The benchmark's workloads: inputs from a seed, one closed-loop
repetition, and the outputs each repetition is checked by.

Every workload is closed-loop with one caller that waits for each
result.  A repetition runs in its own fresh interpreter (see
``worker.py``); this module only runs inside such a worker.

* ``fig13-snoop``: ``fig13`` at the CLI smoke scale (1,020 traces x
  257 points, 12 epochs) — trace synthesis plus NumPy training.
* ``covert-sweep``: first ``verbs-messages``, mixed RDMA Read/Write
  cohorts posted with ``post_send_batch`` and selective signaling on a
  lossless RC pair; then the 16 discrete-event paper experiments; then
  the fault-injection experiment (loss, RNR, pause storms, ARQ) at
  smoke scale.

The workload seed selects one of :data:`CORPUS` recorded inputs
(``seed % CORPUS``), so every run is checked byte-exact against the
outputs ``reference.json`` holds for that input.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Optional

from perfbench.digest import digests
from perfbench.spans import FinalizedTally, Recorder, Tally

#: Number of distinct inputs per workload with a recorded reference.
CORPUS = 16

#: The discrete-event paper experiments, in CLI order.
SWEEP = (
    "table1", "table5", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12", "pythia", "stealth", "linearity",
    "mitigation-noise", "mitigation-partition",
)

#: The batched-verbs artifact (see :func:`run_verbs`).
VERBS = "verbs-messages"

#: Each workload's artifacts, in the order a repetition makes them.
WORKLOADS = {
    "fig13-snoop": ("fig13",),
    "covert-sweep": (VERBS,) + SWEEP + ("faults",),
}

#: fig13 accuracy fields checked within :data:`ACCURACY_TOLERANCE`
#: instead of byte-exact (a BLAS Conv1d may reorder float sums).
ACCURACY_FIELDS = ("resnet_accuracy", "train_accuracy", "centroid_accuracy")
ACCURACY_TOLERANCE = 0.03

# verbs-messages shape
COHORT = 256              # WQEs per post_send_batch cohort
SIGNAL_EVERY = 16         # a CQE on every 16th WQE and the last
WRITES_PER_COHORT = 64    # the other 192 are RDMA Reads
LENGTHS = (64, 128, 256, 512)
VERBS_COHORTS = 2048      # cohorts posted per repetition
REFERENCE_COHORTS = 32    # the CQEs of the first ones are digested
DESCRIPTOR_SETS = 16      # distinct cohorts, posted round-robin
SLOT = 512                # bytes per local/remote buffer slot
REGION = 1 << 20          # remote read region; writes land above it


def input_seed(seed: int) -> int:
    return seed % CORPUS


# ----------------------------------------------------------------------
# Instruments: counter tallies (always on) and layer spans (traced run)
# ----------------------------------------------------------------------
def _nic_counters(counters: Any) -> dict:
    requests = sum(counters.per_opcode.values())
    return {
        "tx_packets": counters.tx.packets,
        "retransmits": counters.retransmits,
        "timeouts": counters.timeouts,
        "rnr_naks": counters.rnr_naks,
        "flushed_wqes": counters.flushed_wqes,
        "pause_events": counters.pause_events,
        "requests": requests,
    }


def _translation_stats(stats: Any) -> dict:
    return {
        "requests": stats.requests,
        "bank_wait_ns": stats.bank_wait_ns,
        "segment_misses": stats.segment_misses,
    }


class Instruments:
    """Counter tallies for the output checks, plus — in the traced run —
    the layer spans and the simulator tally."""

    def __init__(self, traced: bool) -> None:
        from repro.rnic.counters import NICCounters
        from repro.rnic.translation import TranslationStats

        self.nic = Tally(NICCounters, _nic_counters).install()
        self.translation = Tally(TranslationStats,
                                 _translation_stats).install()
        self.recorder: Optional[Recorder] = None
        self.sims: Optional[FinalizedTally] = None
        if traced:
            from repro.sim.kernel import Simulator

            self.recorder = Recorder()
            self.sims = FinalizedTally(
                Simulator, lambda sim: sim.events_fired).install()
            install_layer_spans(self.recorder)

    def mark(self) -> tuple[int, int]:
        """How many counter instances exist so far (see :meth:`counters`)."""
        return len(self.nic.instances), len(self.translation.instances)

    def counters(self, since: tuple[int, int] = (0, 0)) -> dict:
        """Simulated counters, keyed ``nic.*`` / ``translation.*``,
        summed over the instances built since the :meth:`mark` ``since``.

        Summing only the new instances, not subtracting an earlier
        total, keeps float counters bit-identical to an artifact run on
        its own."""
        out = {f"nic.{k}": v for k, v in self.nic.total(since[0]).items()}
        out.update({f"translation.{k}": v for k, v in
                    self.translation.total(since[1]).items()})
        return out

    def span(self, name: str) -> Any:
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name)


def install_layer_spans(recorder: Recorder) -> None:
    """Wrap each layer's public entry points (outside-in)."""
    from repro.baselines.pythia import PythiaChannel
    from repro.covert import arq
    from repro.covert.multilevel import MultiLevelIntraMRChannel
    from repro.covert.priority_channel import PriorityChannel
    from repro.covert.uli_channel import ULIChannelBase
    from repro.defense.service import DetectorBankService
    from repro.host.cluster import RDMAConnection
    from repro.ml.layers import Conv1d
    from repro.ml.resnet import ResNet1d
    from repro.ml.train import Adam, Trainer
    from repro.rnic import rnic
    from repro.side import snoop
    from repro.verbs.qp import QueuePair

    wrap = recorder.wrap
    wrap(snoop.TraceSynthesizer, "trace", "side.synth",
         units=lambda synth, *args, **kwargs: len(
             synth.config.observation_offsets))
    wrap(snoop, "capture_trace_sim", "side.capture")
    wrap(Trainer, "fit", "ml.fit")
    wrap(ResNet1d, "predict", "ml.predict")
    wrap(Conv1d, "forward", "ml.conv1d.forward")
    wrap(Conv1d, "backward", "ml.conv1d.backward")
    wrap(Adam, "step", "ml.adam.step")
    for method in ("post_read", "post_write", "post_read_batch",
                   "post_atomic"):
        wrap(RDMAConnection, method, "verbs.post")
    wrap(QueuePair, "post_send", "verbs.post")
    wrap(QueuePair, "post_send_batch", "verbs.post")
    wrap(RDMAConnection, "await_completions", "verbs.await")

    def bits_sent(_self: Any, bits: Any, *args: Any, **kwargs: Any) -> int:
        return len(bits)

    for channel in (ULIChannelBase, MultiLevelIntraMRChannel,
                    PriorityChannel, PythiaChannel):
        wrap(channel, "transmit", "covert.transmit", units=bits_sent)
    wrap(arq, "arq_transmit", "covert.transmit", units=bits_sent)

    def samples(_self: Any, slots: Any, *args: Any, **kwargs: Any) -> int:
        return len(slots)

    wrap(DetectorBankService, "ingest_slots", "defense.ingest",
         units=samples)
    wrap(rnic, "try_fast_path", "rnic.batch.plan",
         outcome=lambda fast: "fast" if fast else "fallback")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def import_workload(workload: str) -> None:
    import repro.experiments.runner  # noqa: F401

    if VERBS in WORKLOADS[workload]:
        import repro.host.cluster  # noqa: F401
        import repro.rnic.spec  # noqa: F401


def build_workload(workload: str, seed: int,
                   inst: Instruments) -> tuple[list, Optional["VerbsPair"]]:
    """The workload's inputs: ``(name, runner, experiment seed)`` for
    each experiment, and the verbs pair if the workload posts cohorts."""
    from repro.experiments.runner import REGISTRY

    names = WORKLOADS[workload]
    tasks = [(name, REGISTRY[name], input_seed(seed))
             for name in names if name != VERBS]
    pair = build_verbs(seed, inst) if VERBS in names else None
    return tasks, pair


def run_workload(tasks: list, pair: Optional["VerbsPair"],
                 inst: Instruments) -> dict:
    """One repetition: the verbs cohorts first (their counters are
    those of every instance built so far), then each experiment once,
    dispatched like the CLI's ``--smoke``; returns per-artifact
    records."""
    from repro.experiments.runner import _invoke
    from repro.side.snoop import TraceSynthesizer

    artifacts = [] if pair is None else [run_verbs(pair, inst)]
    captured: list = []
    original = TraceSynthesizer.labelled_traces

    def capture(self: Any, *args: Any, **kwargs: Any) -> Any:
        out = original(self, *args, **kwargs)
        captured.append(out)
        return out

    TraceSynthesizer.labelled_traces = capture
    try:
        for name, runner, exp_seed in tasks:
            captured.clear()
            before = inst.mark()
            record: dict = {"name": name, "ok": True, "error": ""}
            started = time.perf_counter()
            try:
                with inst.span(f"experiments.{name}"):
                    result = _invoke(runner, exp_seed, True, {})
                    result.format_table(max_rows=None)
            except Exception as exc:  # a crashed artifact is a failed op
                record.update(ok=False, error=f"{type(exc).__name__}: {exc}")
                result = None
            record["wall_s"] = time.perf_counter() - started
            counters = record["counters"] = inst.counters(before)
            if result is not None:
                record.update(artifact_digests(result, captured, counters))
            artifacts.append(record)
    finally:
        TraceSynthesizer.labelled_traces = original
    return {"artifacts": artifacts}


def artifact_digests(result: Any, datasets: list, counters: dict) -> dict:
    """Digests of a result (fig13: all but the classifier outputs; see
    :func:`~perfbench.digest.digests`) and, for fig13, the accuracies
    checked by tolerance."""
    rows = [dict(row) for row in result.rows]
    series = dict(result.series)
    accuracy: dict = {}
    if result.experiment == "fig13":
        for field in ACCURACY_FIELDS:
            accuracy[field] = rows[0].pop(field)
        # model outputs: checked through the accuracies only
        series.pop("confusion", None)
        series.pop("per_class_accuracy", None)
    exact = {
        "experiment": result.experiment,
        "title": result.title,
        "notes": result.notes,
        "rows": rows,
        "series": series,
        "datasets": list(datasets),
        "counters": counters,
    }
    out = digests(exact)
    if accuracy:
        out["accuracy"] = accuracy
    return out


# ----------------------------------------------------------------------
# verbs-messages
# ----------------------------------------------------------------------
def verbs_descriptors(seed: int) -> list:
    """:data:`DESCRIPTOR_SETS` cohorts of ``(is_read, length,
    remote_offset, local_offset, signaled)`` drawn from ``seed``.

    Every cohort has the same opcode and length multiset (so cohorts
    cost alike); the seed shuffles their order and the addresses.
    Writes in one cohort target distinct remote slots above the read
    region, and reads only touch the read region, which nothing writes.
    """
    import numpy as np

    cohorts = []
    base_ops = np.array([False] * WRITES_PER_COHORT
                        + [True] * (COHORT - WRITES_PER_COHORT))
    base_lengths = np.resize(np.array(LENGTHS), COHORT)
    for k in range(DESCRIPTOR_SETS):
        rng = np.random.default_rng([input_seed(seed), k])
        is_read = rng.permutation(base_ops)
        lengths = rng.permutation(base_lengths)
        read_offsets = 64 * rng.integers(0, (REGION - SLOT) // 64, COHORT)
        write_slots = rng.choice(REGION // SLOT, COHORT, replace=False)
        cohort = []
        for i in range(COHORT):
            remote = int(read_offsets[i]) if is_read[i] else \
                REGION + SLOT * int(write_slots[i])
            cohort.append((bool(is_read[i]), int(lengths[i]), remote,
                           SLOT * i, i % SIGNAL_EVERY == 0 or i == COHORT - 1))
        cohorts.append(cohort)
    return cohorts


class VerbsPair:
    """A lossless RC pair with seeded buffers and the cohort inputs."""

    def __init__(self, seed: int, mark: tuple[int, int]) -> None:
        import numpy as np

        from repro.host.cluster import Cluster
        from repro.rnic.spec import cx5

        #: the Instruments mark its counters are summed from
        self.mark = mark
        self.cohorts = verbs_descriptors(seed)
        self.cluster = Cluster(seed=input_seed(seed))
        self.server = self.cluster.add_host("server", spec=cx5())
        self.client = self.cluster.add_host("client", spec=cx5())
        self.conn = self.cluster.connect(self.client, self.server,
                                         max_send_wr=COHORT,
                                         cq_capacity=COHORT + 8)
        self.mr = self.server.reg_mr(2 * REGION)
        rng = np.random.default_rng([input_seed(seed), DESCRIPTOR_SETS])
        self.remote_data = rng.bytes(REGION)
        self.server.memory.write(self.mr.addr, self.remote_data)
        # write sources sit after the read landing slots
        self.source_base = COHORT * SLOT
        self.client.memory.write(self.conn.local_mr.addr + self.source_base,
                                 rng.bytes(COHORT * SLOT))
        self.wr_id = 0
        self.wqes = 0

    def cohort(self, index: int) -> list:
        """Post cohort ``index`` and wait for its CQEs."""
        from repro.verbs.enums import Opcode
        from repro.verbs.wr import SendWR, make_read_wr

        conn = self.conn
        local = conn.local_mr.addr
        source = local + self.source_base
        base = self.mr.addr
        rkey = self.mr.rkey
        wrs = []
        signaled_count = 0
        wr_id = self.wr_id
        for is_read, length, remote, slot, signaled in \
                self.cohorts[index % DESCRIPTOR_SETS]:
            wr_id += 1
            signaled_count += signaled
            if is_read:
                wrs.append(make_read_wr(local + slot, length, base + remote,
                                        rkey, wr_id, signaled=signaled))
            else:
                wrs.append(SendWR(opcode=Opcode.RDMA_WRITE,
                                  local_addr=source + slot, length=length,
                                  remote_addr=base + remote, rkey=rkey,
                                  wr_id=wr_id, signaled=signaled))
        self.wr_id = wr_id
        conn.qp.post_send_batch(wrs)
        completions = conn.await_completions(signaled_count)
        self.wqes += COHORT
        return completions

    def check(self, index: int, completions: list) -> list[str]:
        """Every CQE succeeded, every read landed the remote bytes and
        every write stored the local source bytes."""
        problems = [f"wr {wc.wr_id}: {wc.status}" for wc in completions
                    if not wc.ok]
        if self.cluster.sim.pending:
            problems.append(f"{self.cluster.sim.pending} events pending")
        local = self.conn.local_mr.addr
        client_mem = self.client.memory
        server_mem = self.server.memory
        for is_read, length, remote, slot, _ in \
                self.cohorts[index % DESCRIPTOR_SETS]:
            if is_read:
                got = client_mem.read(local + slot, length)
                want = self.remote_data[remote:remote + length]
            else:
                got = server_mem.read(self.mr.addr + remote, length)
                want = client_mem.read(local + self.source_base + slot,
                                       length)
            if got != want:
                problems.append(f"data mismatch at slot {slot // SLOT}")
        return problems


def build_verbs(seed: int, inst: Instruments) -> VerbsPair:
    """The RC pair, its buffers and one warm-up cohort (which pays the
    memoized MR-geometry precheck)."""
    pair = VerbsPair(seed, inst.mark())
    pair.cohort(0)
    return pair


def run_verbs(pair: VerbsPair, inst: Instruments) -> dict:
    """Post :data:`VERBS_COHORTS` cohorts, each timed and checked; the
    artifact record.  One operation per cohort; a broken counter
    identity fails one if no cohort check failed already."""
    cohort_s: list[float] = []
    problems: list[str] = []
    failed = 0
    first_cqes: list = []
    reference: dict = {}
    for index in range(1, VERBS_COHORTS + 1):
        started = time.perf_counter()
        completions = pair.cohort(index)
        cohort_s.append(time.perf_counter() - started)
        found = pair.check(index, completions)
        if found:
            failed += 1
            problems.extend(found[:3])
        if index <= REFERENCE_COHORTS:
            first_cqes.extend(
                (wc.wr_id, wc.status.name, wc.opcode.name,
                 wc.byte_len, wc.post_time, wc.complete_time)
                for wc in completions)
        if index == REFERENCE_COHORTS:
            reference = digests({"cqes": first_cqes,
                                 "counters": inst.counters(pair.mark)})
    counters = inst.counters(pair.mark)
    identities = verbs_identities(pair, counters)
    problems.extend(identities)
    return {
        "name": VERBS, "ok": not problems, "error": "; ".join(problems[:5]),
        "wall_s": sum(cohort_s), **reference, "counters": counters,
        "ops": VERBS_COHORTS, "failed_ops": failed or (1 if identities else 0),
        "wqes": COHORT * VERBS_COHORTS, "cohort_s": cohort_s,
    }


def verbs_identities(pair: VerbsPair, counters: dict) -> list[str]:
    """Exact counter identities of a lossless RC pair: one request and
    one response (or ACK) packet per WQE, one translation per WQE at the
    responder, and no retry or flush activity."""
    want = {
        "nic.tx_packets": 2 * pair.wqes,
        "nic.requests": pair.wqes,
        "translation.requests": pair.wqes,
        "nic.retransmits": 0,
        "nic.timeouts": 0,
        "nic.rnr_naks": 0,
        "nic.flushed_wqes": 0,
        "nic.pause_events": 0,
    }
    return [f"{key} = {counters.get(key)} != {value}"
            for key, value in want.items() if counters.get(key) != value]
