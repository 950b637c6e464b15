"""The Translation & Protection Unit (TPU).

This is the dark box of Figure 3 whose behaviour Section IV-C reverse
engineers, and the physical origin of the *offset effect* (Key Finding
4) in our model.  The unit is shared by every inbound one-sided request
on the responder NIC, which makes it a volatile channel: while two
clients' requests are interleaved in its pipeline, each client's
latency depends on the other's addresses.

Modelled structure:

* a **single-issue pipeline** — requests serialize through the unit, so
  slow requests inflate the queueing delay of everyone behind them;
* **banks** interleaved at 64 B line granularity (``tpu_banks`` banks,
  so bank = (offset // 64) % banks repeats every
  ``banks * 64 = 2048 B`` — the paper's 2048 B periodicity);
* a single-segment **descriptor prefetch buffer** of 2 KB — switching
  segments between consecutive requests costs a refill (the *relative*
  offset effect of Figure 8);
* **alignment fix-ups** — addresses not 8 B-aligned pay a shift/merge
  penalty, 8 B- but not 64 B-aligned addresses a smaller one (the
  stable drops at 8 B and 64 B multiples in Figures 6–7);
* an **MPT context register** — consecutive requests to different MRs
  reload the MR context (the inter-MR effect of Figure 5);
* **MPT/MTT caches** — set-associative LRU; misses fetch from host ICM
  over PCIe.  These caches are what Pythia attacks; Ragnar's effects
  above survive even with 100 % cache hit rates.
"""

from __future__ import annotations

import dataclasses
import math
import os
import zlib
from typing import Hashable, Optional

import numpy as np

from repro.rnic.caches import SetAssocCache
from repro.rnic.jitter import draw_jitter
from repro.rnic.spec import RNICSpec

#: Cohorts below this take the scalar ``admit`` loop: the NumPy prepass
#: in :meth:`TranslationUnit.admit_batch` does not amortize.
VECTOR_MIN = 16


def _select_tpu_batch():
    """The C serial-tail drain, mirroring the kernel's engine choice.

    ``REPRO_SIM_ENGINE=python`` forces the pure-Python loop (the same
    switch that selects the pure-Python event core), and a missing or
    numpy-less ``_speedups`` build falls back silently.  The two
    implementations are bit-identical — the C tail draws jitter through
    the very ziggurat routines the ``Generator`` methods dispatch to.
    """
    if os.environ.get("REPRO_SIM_ENGINE", "").lower() != "python":
        try:
            from repro.sim._speedups import tpu_admit_batch
            return tpu_admit_batch
        except ImportError:
            pass
    return None


_C_TPU_TAIL = _select_tpu_batch()


def mr_cache_id(mr_key: Hashable) -> int:
    """Deterministic integer identity of an MR key for cache indexing.

    Integer rkeys stand for themselves (they are small sequential
    counters, so consecutive registrations stride the cache sets the
    same way regardless of the counter's absolute base); every other
    key type hashes through CRC-32, which — unlike ``hash(str)`` — is
    not salted per process.  Process-independence matters twice: replay
    audits compare trace digests across runs, and the parallel
    experiment runner must produce byte-identical output from worker
    processes.  Eviction-set construction (``repro.baselines.pythia``)
    relies on this function matching the cache keys ``admit()`` uses.
    """
    if type(mr_key) is int:
        return mr_key
    if isinstance(mr_key, str):
        return zlib.crc32(mr_key.encode("utf-8"))
    return zlib.crc32(repr(mr_key).encode("utf-8"))


@dataclasses.dataclass
class TranslationStats:
    """Aggregate counters exposed for tests and Grain-III telemetry."""

    requests: int = 0
    mr_switches: int = 0
    segment_misses: int = 0
    unaligned8: int = 0
    unaligned64: int = 0
    bank_wait_ns: float = 0.0
    busy_ns: float = 0.0


@dataclasses.dataclass(frozen=True)
class TranslationBreakdown:
    """Per-request latency decomposition (for tests/inspection)."""

    bank_wait: float
    base: float
    alignment: float
    segment: float
    wave: float
    mr_switch: float
    line_lock: float
    cache_miss: float
    jitter: float

    @property
    def service(self) -> float:
        return (
            self.base
            + self.alignment
            + self.segment
            + self.wave
            + self.mr_switch
            + self.line_lock
            + self.cache_miss
            + self.jitter
        )

    @property
    def total(self) -> float:
        return self.bank_wait + self.service


class TranslationUnit:
    """Stateful service-time model of the TPU.

    ``admit()`` runs once per inbound one-sided request — it is the
    single hottest model method in the repo — so the class is slotted,
    the frozen spec's scalars are cached as instance floats, bank
    occupancy lives in a plain Python list (scalar indexing, no NumPy
    boxing), and MR keys are normalized to ints via
    :func:`mr_cache_id` before touching the MPT/MTT caches.  That
    pins the cache set mapping: raw string keys would go through
    Python's per-process randomized ``hash()``, which would break
    byte-identical replay across worker processes (``--jobs N``).
    """

    __slots__ = (
        "spec", "rng", "mpt_cache", "mtt_cache", "stats",
        "_bank_busy", "_pipe_busy", "_last_mr", "_last_seg_mr",
        "_last_seg_idx", "_last_line_mr", "_last_line_idx", "_mr_ids",
        "_nbanks", "_line_bytes", "_seg_bytes", "_base_ns",
        "_mr_switch_ns", "_seg_miss_ns", "_line_lock_ns", "_sub8_ns",
        "_sub64_ns", "_mpt_miss_ns", "_mtt_miss_ns", "_bank_hold_ns",
        "_wave_half", "_two_pi", "_jitter_sigma", "_jitter_floor",
        "_spike_prob", "_spike_ns",
    )

    def __init__(self, spec: RNICSpec, rng: Optional[np.random.Generator] = None) -> None:
        self.spec = spec
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.mpt_cache = SetAssocCache(spec.mpt_cache_entries, spec.mpt_cache_ways)
        self.mtt_cache = SetAssocCache(spec.mtt_cache_entries, spec.mtt_cache_ways)
        self._bank_busy = [0.0] * spec.tpu_banks
        self._pipe_busy = 0.0
        self._last_mr: Optional[int] = None
        self._last_seg_mr: Optional[int] = None
        self._last_seg_idx = -1
        self._last_line_mr: Optional[int] = None
        self._last_line_idx = -1
        self._mr_ids: dict[Hashable, int] = {}
        self.stats = TranslationStats()
        # Cached copies of the frozen spec's hot scalars.
        self._nbanks = spec.tpu_banks
        self._line_bytes = spec.tpu_line_bytes
        self._seg_bytes = spec.tpu_segment_bytes
        self._base_ns = spec.tpu_base_ns
        self._mr_switch_ns = spec.tpu_mr_switch_ns
        self._seg_miss_ns = spec.tpu_segment_miss_ns
        self._line_lock_ns = spec.tpu_same_line_lock_ns
        self._sub8_ns = spec.tpu_sub8_penalty_ns
        self._sub64_ns = spec.tpu_sub64_penalty_ns
        self._mpt_miss_ns = spec.mpt_miss_ns
        self._mtt_miss_ns = spec.mtt_miss_ns
        self._bank_hold_ns = spec.tpu_bank_busy_ns
        self._wave_half = spec.tpu_segment_wave_ns * 0.5
        self._two_pi = 2.0 * math.pi
        self._jitter_sigma = spec.jitter_frac * spec.tpu_base_ns
        self._jitter_floor = -0.5 * spec.tpu_base_ns
        self._spike_prob = spec.spike_prob
        self._spike_ns = spec.spike_ns

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def bank_of(self, offset: int) -> int:
        """Bank index of the 64 B line containing ``offset``."""
        return (offset // self.spec.tpu_line_bytes) % self.spec.tpu_banks

    def segment_of(self, offset: int) -> int:
        """2 KB descriptor-segment index of ``offset``."""
        return offset // self.spec.tpu_segment_bytes

    def lines_touched(self, offset: int, size: int) -> range:
        first = offset // self.spec.tpu_line_bytes
        last = (offset + max(size, 1) - 1) // self.spec.tpu_line_bytes
        return range(first, last + 1)

    # ------------------------------------------------------------------
    # The unit itself
    # ------------------------------------------------------------------
    def admit(
        self,
        now: float,
        mr_key: Hashable,
        offset: int,
        size: int,
        want_breakdown: bool = False,
    ) -> tuple[float, Optional[TranslationBreakdown]]:
        """Process one request arriving at ``now``.

        Returns ``(finish_time, breakdown)``; ``breakdown`` is None
        unless requested.  State (pipeline, banks, history registers,
        caches) is updated.
        """
        stats = self.stats
        stats.requests += 1

        # bank availability over the touched lines
        line_bytes = self._line_bytes
        nbanks = self._nbanks
        first_line = offset // line_bytes
        if size > 1:
            last_line = (offset + size - 1) // line_bytes
        else:
            last_line = first_line
        bank_busy = self._bank_busy
        first_bank = first_line % nbanks
        bank_ready = bank_busy[first_bank]
        span = last_line - first_line
        if span == 1:
            # two lines (most unaligned small reads): the next bank
            next_bank = first_bank + 1
            if next_bank == nbanks:
                next_bank = 0
            if bank_busy[next_bank] > bank_ready:
                bank_ready = bank_busy[next_bank]
        elif span:
            # banks lo..hi-1, then 0..wrap-1 past the last bank
            lo = first_bank
            hi = lo + span + 1
            wrap = 0
            if hi > nbanks:
                if span >= nbanks:
                    lo, hi = 0, nbanks
                else:
                    wrap = hi - nbanks
                    hi = nbanks
            bank_ready = max(bank_busy[lo:hi])
            if wrap:
                wrapped = max(bank_busy[:wrap])
                if wrapped > bank_ready:
                    bank_ready = wrapped
        pipe_busy = self._pipe_busy
        issue_ready = now if now > pipe_busy else pipe_busy
        start = bank_ready if bank_ready > issue_ready else issue_ready
        bank_wait = start - issue_ready
        stats.bank_wait_ns += bank_wait

        # cache lookups (MR keys normalized to ints — see mr_cache_id)
        if type(mr_key) is int:
            mr_id = mr_key
        else:
            mr_ids = self._mr_ids
            mr_id = mr_ids.get(mr_key)
            if mr_id is None:
                mr_id = mr_ids[mr_key] = mr_cache_id(mr_key)
        cache_miss = 0.0
        if not self.mpt_cache.access(mr_id):
            cache_miss += self._mpt_miss_ns
        segment = offset // self._seg_bytes
        if not self.mtt_cache.access((mr_id, segment)):
            cache_miss += self._mtt_miss_ns

        # history-dependent components
        mr_switch = 0.0
        if self._last_mr is not None and mr_id != self._last_mr:
            mr_switch = self._mr_switch_ns
            stats.mr_switches += 1
        self._last_mr = mr_id

        segment_pen = 0.0
        if self._last_seg_mr is not None and (
                mr_id != self._last_seg_mr or segment != self._last_seg_idx):
            segment_pen = self._seg_miss_ns
            stats.segment_misses += 1
        self._last_seg_mr = mr_id
        self._last_seg_idx = segment

        line_lock = 0.0
        if mr_id == self._last_line_mr and first_line == self._last_line_idx:
            line_lock = self._line_lock_ns
        self._last_line_mr = mr_id
        self._last_line_idx = first_line

        # service components, in the fixed order the digest audits pin
        if offset % 8:
            stats.unaligned8 += 1
            alignment = self._sub8_ns
        elif offset % line_bytes:
            stats.unaligned64 += 1
            alignment = self._sub64_ns
        else:
            alignment = 0.0

        pos = (offset % self._seg_bytes) / self._seg_bytes
        wave = self._wave_half * (1.0 - math.cos(self._two_pi * pos))

        rng = self.rng
        jitter = float(rng.normal(0.0, self._jitter_sigma))
        if rng.random() < self._spike_prob:
            jitter += float(rng.exponential(self._spike_ns))
        if jitter < self._jitter_floor:
            jitter = self._jitter_floor

        service = (self._base_ns + alignment + segment_pen + wave
                   + mr_switch + line_lock + cache_miss + jitter)
        finish = start + service
        stats.busy_ns += service

        # the pipeline frees up before the banks do: bank occupancy
        # (descriptor writeback) extends past issue
        self._pipe_busy = finish
        busy_until = finish + self._bank_hold_ns
        if bank_busy[first_bank] < busy_until:
            bank_busy[first_bank] = busy_until
        if span == 1:
            if bank_busy[next_bank] < busy_until:
                bank_busy[next_bank] = busy_until
        elif span:
            for bank in range(lo, hi):
                if bank_busy[bank] < busy_until:
                    bank_busy[bank] = busy_until
            for bank in range(wrap):
                if bank_busy[bank] < busy_until:
                    bank_busy[bank] = busy_until

        if want_breakdown:
            return finish, TranslationBreakdown(
                bank_wait=bank_wait,
                base=self._base_ns,
                alignment=alignment,
                segment=segment_pen,
                wave=wave,
                mr_switch=mr_switch,
                line_lock=line_lock,
                cache_miss=cache_miss,
                jitter=jitter,
            )
        return finish, None

    def _mr_id(self, mr_key: Hashable) -> int:
        """``mr_key`` normalized for the caches (see :func:`mr_cache_id`),
        memoized per unit."""
        if type(mr_key) is int:
            return mr_key
        mr_ids = self._mr_ids
        mr_id = mr_ids.get(mr_key)
        if mr_id is None:
            mr_id = mr_ids[mr_key] = mr_cache_id(mr_key)
        return mr_id

    def admit_batch(
        self,
        arrivals,
        mr_key: Hashable,
        offsets,
        sizes,
    ):
        """Process one descriptor cohort (same MR, admission order).

        Returns the per-request finish times as a list of floats —
        bit-identical to ``[admit(t, mr_key, o, s)[0] for ...]``.  Cohorts of at least
        :data:`VECTOR_MIN` run the shared vectorized prepass
        (:meth:`_prepass`) and then the serial tail: in C when the
        extension exports ``tpu_admit_batch`` (and ``REPRO_SIM_ENGINE``
        does not force Python), without re-entering Python per
        descriptor; otherwise :meth:`_drain`, its bit-identical
        fallback.  ``arrivals`` must already be in admission (event)
        order.
        """
        mr_id = self._mr_id(mr_key)
        n = len(arrivals)
        if n < VECTOR_MIN:
            # small cohorts: the NumPy prepass does not amortize
            admit = self.admit
            return [
                admit(now, mr_id, offset, size)[0]
                for now, offset, size in zip(arrivals, offsets, sizes)
            ]
        det, first_line, last_line = self._prepass(
            np.full(n, mr_id, dtype=np.int64), offsets, sizes)
        if _C_TPU_TAIL is not None:
            stats = self.stats
            arr_in = np.ascontiguousarray(arrivals, dtype=np.float64)
            finishes_out = np.empty(n, dtype=np.float64)
            pipe, bank_wait, busy = _C_TPU_TAIL(
                self.rng.bit_generator.capsule, arr_in, det,
                first_line, last_line, finishes_out, self._bank_busy,
                self._nbanks, self._pipe_busy, self._jitter_sigma,
                self._jitter_floor, self._spike_prob, self._spike_ns,
                self._bank_hold_ns, stats.bank_wait_ns, stats.busy_ns,
            )
            self._pipe_busy = pipe
            stats.bank_wait_ns = bank_wait
            stats.busy_ns = busy
            return finishes_out.tolist()
        return self._drain(det, first_line, last_line, arrivals=arrivals)

    def admit_closed_loop(self, mr_ids, offsets, sizes, gaps) -> np.ndarray:
        """Process requests from one closed-loop client: request ``i``
        arrives ``gaps[i]`` ns after request ``i - 1`` finishes (request
        0: after the unit's pipeline horizon).  ``mr_ids`` holds one
        :func:`mr_cache_id` per request, so the MR may change between
        requests.

        Returns the finish times as a float64 array, bit-identical to
        the scalar loop ``now = admit(now + gap, mr_id, offset, size)[0]``
        started from the pipeline horizon.  Like :meth:`admit_batch`, it
        is the shared prepass followed by :meth:`_drain`.
        """
        if len(gaps) == 0:
            return np.empty(0)
        det, first_line, last_line = self._prepass(
            np.asarray(mr_ids, dtype=np.int64), offsets, sizes)
        return np.asarray(self._drain(det, first_line, last_line, gaps=gaps))

    def _prepass(self, mr_ids: np.ndarray, offsets, sizes):
        """The timing-free part of ``len(mr_ids)`` consecutive admissions.

        Returns ``(det, first_line, last_line)``: each request's
        deterministic service time and its first/last touched line.
        Stats, caches and history registers advance exactly as the
        scalar :meth:`admit` loop would leave them.  The split works
        because most of :meth:`admit` does not depend on timing:

        * alignment, wave, and segment geometry vectorize directly
          (``np.cos`` and ``math.cos`` both evaluate libm's double
          ``cos``, so the wave term is bit-equal elementwise);
        * the history penalties (MR switch, segment switch, same-line
          lock) compare each request with its predecessor (request 0
          with the history registers) — a shifted comparison;
        * the MPT and MTT access sequences depend only on the MR ids
          and segments, so they replay up front; an access repeating
          the previous key is a guaranteed MRU hit whose
          ``move_to_end`` is a no-op, folded into the hit counter, so
          only the key changes touch the caches.  A single-MR cohort
          is the case with one MPT access.

        The deterministic service components are accumulated
        left-to-right in the scalar path's order: base + alignment +
        segment + wave + mr_switch + line_lock + cache_miss (jitter
        joins in :meth:`_drain`); elementwise adds in the same order are
        the same IEEE-754 operations.
        """
        stats = self.stats
        n = len(mr_ids)
        stats.requests += n
        line_bytes = self._line_bytes
        seg_bytes = self._seg_bytes

        off = np.asarray(offsets, dtype=np.int64)
        sz = np.asarray(sizes, dtype=np.int64)
        first_line = off // line_bytes
        last_line = np.where(sz > 1, (off + sz - 1) // line_bytes, first_line)
        segment = off // seg_bytes
        mr_list = mr_ids.tolist()
        seg_list = segment.tolist()

        # alignment penalties (mutually exclusive, like the scalar
        # if/elif) and their stats counts
        sub8 = (off % 8) != 0
        sub64 = ~sub8 & ((off % line_bytes) != 0)
        stats.unaligned8 += int(np.count_nonzero(sub8))
        stats.unaligned64 += int(np.count_nonzero(sub64))
        det = self._base_ns + np.where(
            sub8, self._sub8_ns, np.where(sub64, self._sub64_ns, 0.0)
        )

        # new_mr[i]: request i's MR differs from the previous request's
        mr0 = mr_list[0]
        new_mr = np.empty(n, dtype=bool)
        new_mr[0] = self._last_mr is not None and mr0 != self._last_mr
        np.not_equal(mr_ids[1:], mr_ids[:-1], out=new_mr[1:])

        seg_switch = np.empty(n, dtype=bool)
        seg_switch[0] = self._last_seg_mr is not None and (
            mr0 != self._last_seg_mr or seg_list[0] != self._last_seg_idx
        )
        np.not_equal(segment[1:], segment[:-1], out=seg_switch[1:])
        seg_switch[1:] |= new_mr[1:]
        stats.segment_misses += int(np.count_nonzero(seg_switch))
        det = det + np.where(seg_switch, self._seg_miss_ns, 0.0)

        pos = (off % seg_bytes) / seg_bytes
        det = det + self._wave_half * (1.0 - np.cos(self._two_pi * pos))

        stats.mr_switches += int(np.count_nonzero(new_mr))
        det = det + np.where(new_mr, self._mr_switch_ns, 0.0)

        line_lock = np.empty(n, dtype=bool)
        line_lock[0] = (mr0 == self._last_line_mr
                        and int(first_line[0]) == self._last_line_idx)
        np.equal(first_line[1:], first_line[:-1], out=line_lock[1:])
        line_lock[1:] &= ~new_mr[1:]
        det = det + np.where(line_lock, self._line_lock_ns, 0.0)

        # cache replays: request 0 and every key change are real
        # accesses, the repeats MRU hits; MPT before MTT per request
        cache_miss = np.zeros(n, dtype=np.float64)
        mpt_cache = self.mpt_cache
        mpt_access = mpt_cache.access
        mpt_runs = [0, *(new_mr[1:].nonzero()[0] + 1).tolist()]
        for i in mpt_runs:
            if not mpt_access(mr_list[i]):
                cache_miss[i] = self._mpt_miss_ns
        mpt_cache.hits += n - len(mpt_runs)
        mtt_cache = self.mtt_cache
        mtt_access = mtt_cache.access
        mtt_runs = [0, *(seg_switch[1:].nonzero()[0] + 1).tolist()]
        for i in mtt_runs:
            if not mtt_access((mr_list[i], seg_list[i])):
                cache_miss[i] += self._mtt_miss_ns
        mtt_cache.hits += n - len(mtt_runs)
        det = det + cache_miss

        self._last_mr = self._last_seg_mr = self._last_line_mr = mr_list[-1]
        self._last_seg_idx = seg_list[-1]
        self._last_line_idx = int(first_line[-1])
        return det, first_line, last_line

    def _drain(self, det: np.ndarray, first_line: np.ndarray,
               last_line: np.ndarray, arrivals=None, gaps=None) -> list:
        """The serial tail of a prepassed batch: the jitter draws, the
        pipeline-busy recurrence and bank occupancy.  Returns the finish
        times.

        Requests arrive at the explicit ``arrivals`` (a cohort), or —
        given ``gaps`` instead — each ``gaps[i]`` ns after the previous
        request finished (a closed-loop client).  The jitter does not
        depend on timing, so all of it is drawn up front
        (:func:`~repro.rnic.jitter.draw_jitter`, which consumes the
        stream exactly as :meth:`admit`'s per-request calls do) and
        added to ``det`` in one array add; numpy computes
        :meth:`admit`'s ``normal(0.0, sigma)`` as ``0.0 + sigma * z``,
        so ``sigma * z`` gives bit-equal service times.
        """
        closed = arrivals is None
        lead = gaps if closed else arrivals
        # plain floats keep the accumulators and bank horizons free of
        # numpy scalar types
        if isinstance(lead, np.ndarray):
            lead = lead.tolist()
        services = det + draw_jitter(
            self.rng, len(det), self._jitter_sigma, self._jitter_floor,
            self._spike_prob, self._spike_ns)
        hold = self._bank_hold_ns
        nbanks = self._nbanks
        bank_busy = self._bank_busy
        pipe_busy = self._pipe_busy
        stats = self.stats
        bank_wait_acc = stats.bank_wait_ns
        busy_acc = stats.busy_ns
        finishes = []
        append = finishes.append
        for service, fl, ll, t in zip(services.tolist(), first_line.tolist(),
                                      last_line.tolist(), lead):
            arrival = pipe_busy + t if closed else t
            bank = fl % nbanks
            bank_ready = bank_busy[bank]
            span = ll - fl
            if span == 1:
                next_bank = bank + 1
                if next_bank == nbanks:
                    next_bank = 0
                if bank_busy[next_bank] > bank_ready:
                    bank_ready = bank_busy[next_bank]
            elif span:
                # banks lo..hi-1, then 0..wrap-1 (see admit)
                lo = bank
                hi = lo + span + 1
                wrap = 0
                if hi > nbanks:
                    if span >= nbanks:
                        lo, hi = 0, nbanks
                    else:
                        wrap = hi - nbanks
                        hi = nbanks
                bank_ready = max(bank_busy[lo:hi])
                if wrap:
                    wrapped = max(bank_busy[:wrap])
                    if wrapped > bank_ready:
                        bank_ready = wrapped
            issue_ready = arrival if arrival > pipe_busy else pipe_busy
            start = bank_ready if bank_ready > issue_ready else issue_ready
            bank_wait_acc += start - issue_ready
            finish = start + service
            busy_acc += service
            pipe_busy = finish
            busy_until = finish + hold
            if bank_busy[bank] < busy_until:
                bank_busy[bank] = busy_until
            if span == 1:
                if bank_busy[next_bank] < busy_until:
                    bank_busy[next_bank] = busy_until
            elif span:
                for other in range(lo, hi):
                    if bank_busy[other] < busy_until:
                        bank_busy[other] = busy_until
                for other in range(wrap):
                    if bank_busy[other] < busy_until:
                        bank_busy[other] = busy_until
            append(finish)
        self._pipe_busy = pipe_busy
        stats.bank_wait_ns = bank_wait_acc
        stats.busy_ns = busy_acc
        return finishes

    def checkpoint(self) -> tuple:
        """Everything :meth:`admit` can change, for :meth:`restore`: a
        caller that admits speculatively (the closed-loop planner, which
        can still decline after its admits) rolls back with it.  The
        stats object itself is kept, so counter tallies that track
        ``TranslationStats`` instances see no new one."""
        return (dict(self.stats.__dict__), list(self._bank_busy),
                self._pipe_busy, self._last_mr, self._last_seg_mr,
                self._last_seg_idx, self._last_line_mr, self._last_line_idx,
                self.mpt_cache.checkpoint(), self.mtt_cache.checkpoint(),
                self.rng.bit_generator.state)

    def restore(self, state: tuple) -> None:
        """Return to a :meth:`checkpoint` (RNG stream included)."""
        (stats, self._bank_busy, self._pipe_busy, self._last_mr,
         self._last_seg_mr, self._last_seg_idx, self._last_line_mr,
         self._last_line_idx, mpt, mtt, rng_state) = state
        self.stats.__dict__.update(stats)
        self.mpt_cache.restore(mpt)
        self.mtt_cache.restore(mtt)
        self.rng.bit_generator.state = rng_state

    def reset_history(self) -> None:
        """Clear history registers and bank occupancy (not the caches)."""
        self._bank_busy = [0.0] * self._nbanks
        self._pipe_busy = 0.0
        self._last_mr = None
        self._last_seg_mr = None
        self._last_seg_idx = -1
        self._last_line_mr = None
        self._last_line_idx = -1
