"""Snooping on disaggregated memory with the Grain-IV offset effect
(Section VI-B, Figure 13).

Setup: a 1 KB shared file in the memory server; the victim repeatedly
reads one 64 B record from the *Candidate Set* (17 offsets, 0–1024 B);
the attacker measures ULI while reading each address of the
*Observation Set* (257 offsets, 0–1024 B at 4 B steps) N times.  The
victim's in-flight requests occupy the translation unit's bank and line
for its record, so the attacker's ULI is elevated exactly where the
observation offset collides with the victim's — the average ULIs form a
trace whose bump position encodes the secret address.

Two capture paths:

* :func:`capture_trace_sim` — the full discrete-event pipeline with a
  real Sherman victim (used for Figure 13(a) demo traces and to
  validate the fast path);
* :class:`TraceSynthesizer` — drives the *same* ``TranslationUnit``
  model directly, interleaving victim/attacker admissions without the
  rest of the pipeline; used to build the classifier dataset.  It
  builds a class's traces together, as the rows of one batch
  (:meth:`TraceSynthesizer.class_traces`): about 0.9 ms a 257-point
  trace, against 1.3 ms one at a time and 300-400 ms through the full
  pipeline, on a 2-vCPU x86_64 VM without the C extension.  A lone
  :meth:`~TraceSynthesizer.trace` is the one-row case, 1.2-1.5 ms.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
from typing import Optional

import numpy as np

from repro.apps.sherman import ShermanClient, ShermanMemoryServer
from repro.covert.lockstep import PipelinedReader
from repro.host.cluster import Cluster
from repro.rnic.spec import RNICSpec, cx5
from repro.rnic.translation import (
    TranslationUnit,
    admit_closed_loop_rows,
    mr_cache_id,
)
from repro.telemetry.uli import ProbeTarget

#: Candidate Set: 17 offsets, 0 B to 1024 B (the victim's secret).
CANDIDATE_OFFSETS = tuple(range(0, 1025, 64))
#: Observation Set: 257 samples, 0 B to 1024 B.
OBSERVATION_OFFSETS = tuple(range(0, 1025, 4))

assert len(CANDIDATE_OFFSETS) == 17
assert len(OBSERVATION_OFFSETS) == 257

#: Cache ids of the shared file's MR and the ambient tenant's MR.
FILE_MR = mr_cache_id("shared-file")
AMBIENT_MR = mr_cache_id("ambient-mr")
#: Attacker pacing between its own requests (ns).
PROBE_GAP_NS = 50.0
#: An ambient request reads one of this many 64 B lines.
STRAY_LINES = 32768
#: Traces a class batch builds together, at most: bounds the batch's
#: arrays (a few MB) whatever the class size.
CLASS_BLOCK = 64


@dataclasses.dataclass(frozen=True)
class SnoopConfig:
    """Attack parameters (Section VI-B's setup)."""

    read_size: int = 64            # both parties use 64 B RDMA Reads
    probes_per_point: int = 5      # N measurements per observation offset
    file_size: int = 1024          # the shared file
    #: Fraction of probe slots in which the victim's request is actually
    #: in flight (its access loop has think time); < 1 blurs the traces
    #: the way a real victim does.  Calibrated with ambient_rate so the
    #: ResNet lands near the paper's 95.6 % (see EXPERIMENTS.md).
    victim_duty: float = 0.4
    #: Probability of an unrelated tenant's request interleaving.
    ambient_rate: float = 0.25
    #: Spacing of the observation set in bytes.  The paper samples every
    #: 4 B (257 points over 0-1024 B); coarser sets trade attack time
    #: for trace resolution (see ``bench_ablation_observation_density``).
    observation_step: int = 4

    def __post_init__(self) -> None:
        if self.probes_per_point <= 0:
            raise ValueError("need at least one probe per point")
        if not 0.0 < self.victim_duty <= 1.0:
            raise ValueError("victim duty must be in (0, 1]")
        if not 0.0 <= self.ambient_rate < 1.0:
            raise ValueError("ambient rate must be in [0, 1)")
        if self.observation_step <= 0 or 1024 % self.observation_step:
            raise ValueError("observation step must divide 1024")

    @property
    def observation_offsets(self) -> tuple[int, ...]:
        return tuple(range(0, 1025, self.observation_step))


class TraceSynthesizer:
    """Fast trace generation at the translation-unit level.

    Interleaves victim, attacker and ambient admissions into one
    :class:`TranslationUnit` — the same stateful model the full
    pipeline uses, so bank conflicts, line locks, alignment penalties
    and jitter all behave identically; only the (trace-invariant)
    constant pipeline stages are omitted.
    """

    def __init__(self, spec: Optional[RNICSpec] = None,
                 config: Optional[SnoopConfig] = None,
                 seed: int = 0) -> None:
        self.spec = spec if spec is not None else cx5()
        self.config = config if config is not None else SnoopConfig()
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        #: :func:`raw_replay_exact` on ``rng``, checked at first use
        self._replay: Optional[bool] = None

    def trace(self, victim_offset: int, file_base: int = 0,
              rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """One 257-dimensional attacker trace for a victim reading
        ``file_base + victim_offset``.

        ``rng`` defaults to the synthesizer's own sequential stream;
        dataset builds pass per-trace streams instead (see
        :meth:`labelled_traces`) so traces are independent of generation
        order.

        Each probe slot admits, in order: the victim's read (with
        probability ``victim_duty``), an ambient read of a random line
        of another MR (``ambient_rate``), then the attacker's probe
        ``PROBE_GAP_NS`` after the previous request finished; the
        sample is the probe's latency.  This is the one-row case of
        :meth:`_rows`, which builds a class's traces together.
        """
        return self._rows(victim_offset, file_base,
                          [self.rng if rng is None else rng])[0]

    def _rows(self, victim_offset: int, file_base: int,
              rngs: list) -> np.ndarray:
        """One trace per stream in ``rngs`` (distinct generators), as
        the rows of one batch; row ``r`` is bit-identical to
        ``trace(victim_offset, file_base, rngs[r])`` run alone.

        Each row first seeds its own :class:`TranslationUnit` from its
        stream, in row order.  None of the per-slot decisions depends on
        the unit's timing, so each row's are drawn next
        (:func:`draw_decisions`), laid out as one flat descriptor array
        with a row per unit, and admitted with
        :func:`~repro.rnic.translation.admit_closed_loop_rows` — the
        same results, bit for bit, as admitting each request with
        :meth:`TranslationUnit.admit` in a loop.
        """
        if victim_offset not in CANDIDATE_OFFSETS:
            raise ValueError(
                f"victim offset {victim_offset} not in the candidate set"
            )
        cfg = self.config
        units = [
            TranslationUnit(self.spec,
                            rng=np.random.default_rng(rng.integers(2**63)))
            for rng in rngs]
        probe_offsets = _probe_offsets(cfg)
        slots = len(probe_offsets)
        if self._replay is None:
            self._replay = raw_replay_exact(self.rng)
        decisions = [draw_decisions(rng, slots, cfg.victim_duty,
                                    cfg.ambient_rate, replay=self._replay)
                     for rng in rngs]
        victim = np.array([row[0] for row in decisions])
        stray = np.array([row[1] for row in decisions])
        ambient = stray >= 0

        # descriptors, per slot: [victim] [ambient] attacker; row r's
        # are bounds[r]:bounds[r + 1]
        count = victim + ambient.astype(np.int64)
        ends = np.cumsum(count + 1, axis=1)
        bounds = np.concatenate(([0], np.cumsum(ends[:, -1])))
        probe = ends - 1 + bounds[:-1, None]
        n = int(bounds[-1])
        mr_ids = np.full(n, FILE_MR, dtype=np.int64)
        addr = np.full(n, file_base + victim_offset, dtype=np.int64)
        gaps = np.zeros(n)
        addr[probe] = file_base + probe_offsets
        gaps[probe] = PROBE_GAP_NS
        ambient_at = (probe - 1)[ambient]
        addr[ambient_at] = 64 * stray[ambient]
        mr_ids[ambient_at] = AMBIENT_MR

        finish = admit_closed_loop_rows(
            units, bounds, mr_ids, addr,
            np.full(n, cfg.read_size, dtype=np.int64), gaps)
        # each probe's latency from its arrival, previous finish + gap
        # (a row's first request: from 0)
        previous = np.concatenate(([0.0], finish))[probe]
        previous[probe == bounds[:-1, None]] = 0.0
        latency = finish[probe] - (previous + PROBE_GAP_NS)
        # the mean, as ndarray.mean computes it
        return (latency.reshape(len(rngs), -1, cfg.probes_per_point)
                .sum(axis=2) / cfg.probes_per_point)

    def _trace_rng(self, label: int, repeat: int) -> np.random.Generator:
        """The stream for one (class, repeat) trace.  Keyed on the tuple
        rather than drawn from a shared sequence, so any partitioning of
        the dataset across workers reproduces the serial build exactly."""
        return np.random.default_rng(
            np.random.SeedSequence((self.seed, label, repeat))
        )

    def class_traces(self, label: int, per_class: int,
                     file_base: int = 0) -> np.ndarray:
        """All ``per_class`` traces for one candidate-set label, built
        as the rows of batches of at most :data:`CLASS_BLOCK`."""
        offset = CANDIDATE_OFFSETS[label]
        return np.concatenate([
            self._rows(offset, file_base,
                       [self._trace_rng(label, repeat) for repeat in
                        range(first, min(first + CLASS_BLOCK, per_class))])
            for first in range(0, per_class, CLASS_BLOCK)
        ])

    def labelled_traces(
        self, per_class: int, file_base: int = 0, jobs: int = 1,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``per_class`` traces for every candidate; returns (X, y) with
        X of shape (17*per_class, len(observation_offsets)).

        ``jobs > 1`` synthesizes the candidate classes on a process
        pool.  Each trace draws from its own ``(seed, label, repeat)``
        stream, so the parallel dataset is byte-identical to the serial
        one.
        """
        if per_class <= 0:
            raise ValueError("per_class must be positive")
        if jobs < 1:
            raise ValueError("jobs must be positive")
        labels = range(len(CANDIDATE_OFFSETS))
        if jobs == 1:
            per_label = [
                self.class_traces(label, per_class, file_base=file_base)
                for label in labels
            ]
        else:
            # imported here: the serial build, and every import of this
            # module, stay clear of multiprocessing
            import concurrent.futures
            import multiprocessing

            context = multiprocessing.get_context("spawn")
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, len(CANDIDATE_OFFSETS)),
                mp_context=context,
            ) as pool:
                futures = [
                    pool.submit(_synthesize_class, self.spec, self.config,
                                self.seed, label, per_class, file_base)
                    for label in labels
                ]
                per_label = [future.result() for future in futures]
        xs = np.concatenate(per_label)
        ys = np.repeat(np.arange(len(CANDIDATE_OFFSETS)), per_class)
        return xs, ys


@functools.lru_cache(maxsize=16)
def _probe_offsets(config: SnoopConfig) -> np.ndarray:
    """Each probe slot's observation offset, in slot order."""
    return np.repeat(np.asarray(config.observation_offsets, dtype=np.int64),
                     config.probes_per_point)


def _decisions_by_call(rng: np.random.Generator, slots: int,
                       duty: float, rate: float
                       ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`draw_decisions` through the public ``Generator`` calls."""
    victim = np.empty(slots, dtype=bool)
    stray = np.full(slots, -1, dtype=np.int64)
    random = rng.random
    integers = rng.integers
    for slot in range(slots):
        victim[slot] = random() < duty
        if random() < rate:
            stray[slot] = integers(0, STRAY_LINES)
    return victim, stray


def _decisions_from_raw(rng: np.random.Generator, slots: int,
                        duty: float, rate: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`draw_decisions` replayed from PCG64's raw 64-bit output.

    ``random()`` is ``(raw >> 11) * 2**-53``.  ``integers(0, 32768)``
    is Lemire's bounded draw on the next uint32, which never rejects
    for a power-of-two range, so it is that uint32 ``>> 17``; PCG64
    serves uint32s from the low half of a fresh raw word and buffers
    the high half (``has_uint32``/``uinteger`` in its state) for the
    next one.  The words are over-drawn, then the generator is rewound
    to exactly the consumed count and its uint32 buffer written back,
    so the stream continues as if the public calls had been made.

    A slot starting at word ``p`` reads ``p`` and ``p + 1``, and an
    ambient slot with an empty buffer one more, so the slots' words
    shift by one at each such fresh-word draw.  Between them the slots
    walk one parity of the words, two at a time: from a fresh draw at
    ``q`` (buffer full) the next one is the second ambient slot start
    at or after ``q + 3`` of that word's parity, found for every start
    at once.  Only the chase through them, one step per fresh draw,
    runs in Python; the slots' words and draws are array passes.
    """
    bitgen = rng.bit_generator
    saved = bitgen.state
    carry = saved["has_uint32"]
    # two words per slot, plus at most one per ambient draw;
    # random() < x is (raw >> 11) < x * 2**53, exactly
    words = bitgen.random_raw(3 * slots)
    ri = words >> np.uint64(11)
    # ambient slot starts per parity, closed by two sentinels past any
    # slot, and for each start h the fresh draw after one at h
    hit = np.flatnonzero(ri[1:] < rate * 2.0**53)
    never = 3 * slots + 2
    odd = (hit & 1).astype(bool)
    parities = [np.append(hit[odd == parity], (never, never))
                for parity in (False, True)]
    after = np.full(never + 1, never)
    for parity in (0, 1):
        # a fresh draw at h moves the next slot to h + 3, the other parity
        starts = parities[parity][:-2]
        other = parities[1 - parity]
        after[starts] = other[np.searchsorted(other, starts + 3) + 1]
    fresh = []
    q = int(parities[0][carry])
    # q - len(fresh) is twice the slot of a fresh draw at q
    end = 2 * slots
    while q - len(fresh) < end:
        fresh.append(q)
        q = after.item(q)

    # slot s starts at word 2 s + (fresh draws before s)
    shift = np.zeros(slots + 1, dtype=np.int64)
    shift[(np.array(fresh, dtype=np.int64) - np.arange(len(fresh)) >> 1)
          + 1] = 1
    start = 2 * np.arange(slots) + np.cumsum(shift[:-1])
    victim = ri[start] < duty * 2.0**53
    ambient = np.flatnonzero(ri[start + 1] < rate * 2.0**53)
    # ambient draw j takes a fresh word's low half when (j + carry) is
    # even, else the high half buffered before it
    source = words[start[ambient] + 2]
    value = source & np.uint64(0xFFFFFFFF)
    high = source >> np.uint64(32)
    buffered = np.arange(len(ambient)) % 2 != carry
    before = np.concatenate(([saved["uinteger"]], high))[:len(ambient)]
    value[buffered] = before[buffered]
    stray = np.full(slots, -1, dtype=np.int64)
    stray[ambient] = (value >> np.uint64(17)).astype(np.int64)
    uinteger = int(high[~buffered][-1]) if fresh else saved["uinteger"]

    bitgen.state = saved
    bitgen.advance(2 * slots + len(fresh))
    state = bitgen.state
    state["has_uint32"] = (carry + len(ambient)) % 2
    state["uinteger"] = uinteger
    bitgen.state = state
    return victim, stray


def raw_replay_exact(rng: np.random.Generator) -> bool:
    """Whether :func:`_decisions_from_raw` reproduces the public calls
    on this numpy, checked on two copies of the PCG64 stream ``rng``
    (which is left untouched): the decisions and the generator state
    after them, buffered uint32 included, must match, starting with
    and without a buffered uint32."""
    if type(rng.bit_generator) is not np.random.PCG64:
        return False
    for carry in (False, True):
        by_call = copy.deepcopy(rng)
        replayed = copy.deepcopy(rng)
        if carry:  # toggles whether half a raw word is buffered
            by_call.integers(0, STRAY_LINES)
            replayed.integers(0, STRAY_LINES)
        try:
            got = _decisions_from_raw(replayed, 1024, 0.4, 0.5)
        except (KeyError, TypeError, ValueError):
            return False
        expected = _decisions_by_call(by_call, 1024, 0.4, 0.5)
        if not (np.array_equal(got[0], expected[0])
                and np.array_equal(got[1], expected[1])
                and replayed.bit_generator.state
                == by_call.bit_generator.state):
            return False
    return True


def draw_decisions(rng: np.random.Generator, slots: int, duty: float,
                   rate: float, replay: bool = False
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The per-slot draws of :meth:`TraceSynthesizer.trace`, in its
    draw order: ``victim[i]`` (``random() < duty``) and ``stray[i]``,
    the ambient line drawn when ``random() < rate`` (else -1).

    Consumes ``rng`` exactly as the public calls would.  With
    ``replay`` (a passed :func:`raw_replay_exact` check) a PCG64 stream
    is replayed from raw words in bulk; otherwise the public calls run
    in a loop.  Both give the same arrays.
    """
    if replay and type(rng.bit_generator) is np.random.PCG64:
        return _decisions_from_raw(rng, slots, duty, rate)
    return _decisions_by_call(rng, slots, duty, rate)


def _synthesize_class(spec: RNICSpec, config: SnoopConfig, seed: int,
                      label: int, per_class: int, file_base: int) -> np.ndarray:
    """Pool worker: one candidate class's traces.  Module-level so the
    spawn start method can pickle it by qualified name."""
    synthesizer = TraceSynthesizer(spec=spec, config=config, seed=seed)
    return synthesizer.class_traces(label, per_class, file_base=file_base)


def capture_trace_sim(
    victim_offset: int,
    spec: Optional[RNICSpec] = None,
    config: Optional[SnoopConfig] = None,
    seed: int = 0,
) -> np.ndarray:
    """Full-pipeline trace capture against a live Sherman deployment.

    Builds MS + victim CS + attacker CS; seeds a Sherman tree whose
    first leaf is the shared 1 KB file; the victim hammers its record
    with :meth:`ShermanClient.read_entry_at`-equivalent 64 B reads via a
    pipelined reader while the attacker sweeps the observation set.
    """
    if victim_offset not in CANDIDATE_OFFSETS:
        raise ValueError(f"victim offset {victim_offset} not a candidate")
    spec = spec if spec is not None else cx5()
    config = config if config is not None else SnoopConfig()
    cluster = Cluster(seed=seed)
    ms = cluster.add_host("ms", spec=spec)
    victim_host = cluster.add_host("victim-cs", spec=spec)
    attacker_host = cluster.add_host("attacker-cs", spec=spec)

    server = ShermanMemoryServer(ms)
    setup_conn = cluster.connect(victim_host, server.host)
    setup_client = ShermanClient(setup_conn, server, client_id=1)
    for key in range(1, 16):  # fill the first leaf: the "file index"
        setup_client.insert(key, b"record")
    file_node, _ = setup_client.locate_entry(1)

    victim_conn = cluster.connect(victim_host, server.host, max_send_wr=2)
    attacker_conn = cluster.connect(attacker_host, server.host, max_send_wr=2)
    rng = cluster.sim.random.stream("snoop.victim")

    victim_target = ProbeTarget(server.mr, file_node + victim_offset,
                                config.read_size)
    victim = PipelinedReader(victim_conn, lambda: victim_target, depth=2)
    victim.start()

    offsets = config.observation_offsets
    trace = np.empty(len(offsets))
    for index, obs_offset in enumerate(offsets):
        # keep two probes in flight so the attacker's requests stay
        # interleaved with the victim's in the shared translation unit
        for _ in range(2):
            attacker_conn.post_read(server.mr, file_node + obs_offset,
                                    config.read_size)
        ulis = []
        while len(ulis) < config.probes_per_point:
            wc = attacker_conn.await_completions(1)[0]
            if not wc.ok:
                raise RuntimeError(f"probe failed: {wc.status}")
            ulis.append(wc.unit_latency_increase)
            attacker_conn.post_read(server.mr, file_node + obs_offset,
                                    config.read_size)
        # drain the tail probes before moving to the next offset
        attacker_conn.await_completions(2)
        trace[index] = float(np.mean(ulis))
    victim.stop()
    return trace
