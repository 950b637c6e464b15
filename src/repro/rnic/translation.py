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
import functools
import math
import zlib
from typing import Hashable, Optional

import numpy as np

from repro.rnic.caches import SetAssocCache, access_rows, int_sets, pair_sets
from repro.rnic.jitter import CHUNK_ROWS, draw_jitter_rows
from repro.rnic.spec import RNICSpec

#: Cohorts below this take the scalar ``admit`` loop: the NumPy prepass
#: in :meth:`TranslationUnit.admit_batch` does not amortize.
VECTOR_MIN = 16
#: Requests a drain admits one by one, at most, before the pipeline
#: horizon passes every bank horizon it carried in (see
#: :meth:`TranslationUnit._drain`).
PREFIX_MAX = 8
#: Busy periods a cohort drain restarts its chain for, at most, before
#: it takes the per-request loop instead.
RESTARTS_MAX = 8


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


#: An MTT key ``(mr_id, segment)`` packs into one int64 cache code as
#: ``mr_id << _SEG_BITS | segment`` when both fit (see
#: :func:`_prepass`).
_SEG_BITS = 31
_SEG_MASK = (1 << _SEG_BITS) - 1


@functools.lru_cache(maxsize=16)
def _wave_table(seg_bytes: int, wave_half: float) -> np.ndarray:
    """:meth:`TranslationUnit.admit`'s wave term for every in-segment
    offset, evaluated with its own scalar expression."""
    two_pi = 2.0 * math.pi
    return np.array([wave_half * (1.0 - math.cos(two_pi * (k / seg_bytes)))
                     for k in range(seg_bytes)])


@functools.lru_cache(maxsize=16)
def _head_table(period: int, line_bytes: int, base: float, sub8: float,
                sub64: float) -> tuple:
    """:meth:`TranslationUnit.admit`'s ``base + alignment`` for every
    offset modulo ``period`` (a multiple of 8 and of ``line_bytes``),
    and the phases it counts as ``unaligned8`` and ``unaligned64``."""
    phase = range(period)
    table = np.array([base + (sub8 if k % 8 else sub64 if k % line_bytes
                              else 0.0) for k in phase])
    unaligned8 = np.array([k % 8 != 0 for k in phase])
    unaligned64 = np.array([k % 8 == 0 and k % line_bytes != 0
                            for k in phase])
    return table, unaligned8, unaligned64


def _mtt_keys(codes: np.ndarray) -> list:
    """MTT cache keys ``(mr_id, segment)`` of packed codes."""
    return list(zip((codes >> _SEG_BITS).tolist(),
                    (codes & _SEG_MASK).tolist()))


def _mtt_sets(codes: np.ndarray, nsets: int) -> np.ndarray:
    """The MTT set indices of packed codes."""
    return pair_sets(codes >> _SEG_BITS, codes & _SEG_MASK, nsets)


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
        bit-identical to ``[admit(t, mr_key, o, s)[0] for ...]``.
        Cohorts of at least :data:`VECTOR_MIN` run the shared vectorized
        prepass (:func:`_prepass`, as a batch of one row) and then
        :meth:`_drain`.  ``arrivals`` must already be in admission
        (event) order.
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
        bounds = np.array([0, n])
        det, first_line, last_line = _prepass(
            [self], bounds, np.full(n, mr_id, dtype=np.int64), offsets, sizes)
        det += _jitter([self], bounds)
        return self._drain(det, first_line, last_line,
                           arrivals=arrivals).tolist()

    def admit_closed_loop(self, mr_ids, offsets, sizes, gaps) -> np.ndarray:
        """Process requests from one closed-loop client: request ``i``
        arrives ``gaps[i]`` ns after request ``i - 1`` finishes (request
        0: after the unit's pipeline horizon).  ``mr_ids`` holds one
        :func:`mr_cache_id` per request, so the MR may change between
        requests.

        Returns the finish times as a float64 array, bit-identical to
        the scalar loop ``now = admit(now + gap, mr_id, offset, size)[0]``
        started from the pipeline horizon: the one-row case of
        :func:`admit_closed_loop_rows`.
        """
        if len(gaps) == 0:
            return np.empty(0)
        return admit_closed_loop_rows([self], np.array([0, len(gaps)]),
                                      mr_ids, offsets, sizes, gaps)

    def _drain(self, services: np.ndarray, first_line: np.ndarray,
               last_line: np.ndarray, arrivals=None,
               gaps=None) -> np.ndarray:
        """The timing part of a prepassed batch: the pipeline-busy
        recurrence and bank occupancy, given each request's service
        time.  Returns the finish times.

        Requests arrive at the explicit ``arrivals`` (a cohort), or —
        given ``gaps`` instead — each ``gaps[i]`` ns after the previous
        request finished (a closed-loop client).  A service is the
        prepass's deterministic part plus the jitter, which does not
        depend on timing, so callers draw it up front (:func:`_jitter`,
        which consumes the unit's stream exactly as :meth:`admit`'s
        per-request calls do) and add it in one array add; numpy
        computes :meth:`admit`'s ``normal(0.0, sigma)`` as ``0.0 +
        sigma * z``, so ``sigma * z`` gives bit-equal service times.

        The recurrence itself is closed-form under a contract:

        * a short prefix runs :meth:`_serial` until the pipeline
          horizon is at or above every bank horizon carried in;
        * from the prefix's last request on, every service is at least
          the bank hold.  Rounding is monotone, so a bank last held by
          request ``j <= i - 2`` is free by ``f(i-1) >= f(j) + s(i-1)
          >= f(j) + hold``: only request ``i - 1``'s banks, held until
          ``f(i-1) + hold``, can stall request ``i``.  With ``c(i)`` the
          hold when requests ``i`` and ``i - 1`` share a bank and 0
          otherwise, request ``i`` starts at ``f(i-1) + max(c(i),
          gap)`` in the closed loop (gaps non-negative), and at
          ``max(a(i), f(i-1) + c(i))`` in a cohort;
        * the chain of those starts and finishes is one
          ``np.add.accumulate``: the same additions, in the same order,
          as the loop.  A cohort restarts the chain at each arrival
          past its chained start, one busy period at a time.

        When the contract fails (a short service, a negative gap, a
        prefix or a cohort with too many restarts) :meth:`_serial` runs
        the rest.
        """
        lead = np.asarray(arrivals if gaps is None else gaps,
                          dtype=np.float64)
        n = len(services)
        hold = self._bank_hold_ns
        closed = gaps is not None
        carried = max(self._bank_busy)
        k = 0
        head = []
        while self._pipe_busy < carried and k < min(n, PREFIX_MAX):
            head += self._serial(services[k:k + 1], first_line[k:k + 1],
                                 last_line[k:k + 1], lead[k:k + 1], closed)
            k += 1
        if k == n:
            return np.array(head)
        finish = None
        if (self._pipe_busy >= carried
                and services[max(k - 1, 0):].min() >= hold):
            finish = self._chain(services, first_line, last_line, lead,
                                 closed, k)
        if finish is None:
            finish = np.array(self._serial(
                services[k:], first_line[k:], last_line[k:], lead[k:],
                closed))
        return np.concatenate((head, finish)) if head else finish

    def _chain(self, services: np.ndarray, first_line: np.ndarray,
               last_line: np.ndarray, lead: np.ndarray, closed: bool,
               k: int) -> Optional[np.ndarray]:
        """Requests ``k`` onwards of a :meth:`_drain` in closed form,
        committing the pipeline, bank and stats updates; None, with
        nothing changed, when the gaps or the busy periods break the
        contract."""
        nbanks = self._nbanks
        hold = self._bank_hold_ns
        service = services[k:]
        lead = lead[k:]
        m = len(service)
        if closed and not lead.min() >= 0.0:
            return None
        # c(i): request i - 1 holds one of request i's banks, i.e. some
        # line difference between the two spans is a multiple of nbanks
        lo = first_line[1:] - last_line[:-1]
        hi = last_line[1:] - first_line[:-1]
        stall = np.empty(len(services))
        stall[0] = 0.0
        stall[1:] = (_div(hi, nbanks) != _div(lo - 1, nbanks)) * hold
        stall = stall[k:]
        pipe = self._pipe_busy

        seq = np.empty(2 * m + 1)
        if closed:
            # start(i) = f(i-1) + max(c(i), gap): monotone rounding makes
            # it the later of the bank release and the arrival
            seq[0] = pipe
            seq[1::2] = np.maximum(stall, lead)
            seq[2::2] = service
            chain = np.add.accumulate(seq)
            start = chain[1::2]
            finish = chain[2::2]
            wait = start - (chain[:-1:2] + lead)
        else:
            start = np.empty(m)
            finish = np.empty(m)
            r = 0
            base = pipe
            restarts = 0
            while True:
                part = seq[:2 * (m - r) + 1]
                part[0] = base
                part[1::2] = stall[r:]
                if restarts:  # the chain restarts at an arrival
                    part[1] = 0.0
                part[2::2] = service[r:]
                chain = np.add.accumulate(part)
                late = np.flatnonzero(lead[r:] > chain[1::2])
                end = m if not len(late) else r + int(late[0])
                start[r:end] = chain[1:2 * (end - r):2]
                finish[r:end] = chain[2:2 * (end - r) + 1:2]
                if end == m:
                    break
                restarts += 1
                if restarts > RESTARTS_MAX:
                    return None
                r = end
                base = lead[r]
            previous = np.concatenate(([pipe], finish[:-1]))
            wait = start - np.maximum(lead, previous)

        stats = self.stats
        stats.bank_wait_ns = float(np.add.accumulate(
            np.concatenate(([stats.bank_wait_ns], wait)))[-1])
        stats.busy_ns = float(np.add.accumulate(
            np.concatenate(([stats.busy_ns], service)))[-1])
        self._pipe_busy = float(finish[-1])
        # every bank of every request, held until its finish + hold:
        # the d-th line of each request spanning more than d lines
        until = finish + hold
        line = first_line[k:]
        width = np.minimum(last_line[k:] - line, nbanks - 1)
        bank_busy = np.array(self._bank_busy)
        np.maximum.at(bank_busy, _mod(line, nbanks), until)
        for d in range(1, int(width.max()) + 1):
            spans = np.flatnonzero(width >= d)
            np.maximum.at(bank_busy, _mod(line[spans] + d, nbanks),
                          until[spans])
        self._bank_busy = bank_busy.tolist()
        return finish

    def _serial(self, services: np.ndarray, first_line: np.ndarray,
                last_line: np.ndarray, lead: np.ndarray,
                closed: bool) -> list:
        """The per-request loop of :meth:`_drain`: the definition its
        closed form must match, and its fallback."""
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
                                      last_line.tolist(), lead.tolist()):
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
        (stats, bank_busy, self._pipe_busy, self._last_mr,
         self._last_seg_mr, self._last_seg_idx, self._last_line_mr,
         self._last_line_idx, mpt, mtt, rng_state) = state
        self._bank_busy = list(bank_busy)
        self.stats.__dict__.update(stats)
        self.mpt_cache.restore(mpt)
        self.mtt_cache.restore(mtt)
        self.rng.bit_generator.state = rng_state


def admit_closed_loop_rows(units: list, bounds, mr_ids, offsets, sizes,
                           gaps) -> np.ndarray:
    """Closed-loop clients on several units at once, one row each: row
    ``r`` is requests ``bounds[r]:bounds[r + 1]`` of the flat arrays,
    admitted to ``units[r]`` as its
    :meth:`~TranslationUnit.admit_closed_loop` would admit them.  Rows
    must be non-empty and the units distinct, built from one spec.

    Returns the rows' finish times, concatenated: each row's
    bit-identical to its own ``admit_closed_loop``, every unit left in
    the same state (stats, caches, registers, horizons, stream).  Every
    row's jitter is drawn at once (:func:`_jitter`) and the prepass
    (:func:`_prepass`) runs over a few rows at a time; then each row
    drains on its own unit (:meth:`TranslationUnit._drain`)."""
    bounds = np.asarray(bounds, dtype=np.int64)
    mr_ids = np.asarray(mr_ids, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    gaps = np.asarray(gaps, dtype=np.float64)
    jitter = _jitter(units, bounds)
    finish = np.empty(len(gaps))
    for first in range(0, len(units), CHUNK_ROWS):
        last = min(first + CHUNK_ROWS, len(units))
        lo, hi = int(bounds[first]), int(bounds[last])
        part = units[first:last]
        sub = bounds[first:last + 1] - lo
        det, first_line, last_line = _prepass(
            part, sub, mr_ids[lo:hi], offsets[lo:hi], sizes[lo:hi])
        det += jitter[lo:hi]
        for u, start, end in zip(part, sub[:-1].tolist(), sub[1:].tolist()):
            finish[lo + start:lo + end] = u._drain(
                det[start:end], first_line[start:end], last_line[start:end],
                gaps=gaps[lo + start:lo + end])
    return finish


def _jitter(units: list, bounds: np.ndarray) -> np.ndarray:
    """Every row's jitter draws, from its unit's stream."""
    unit = units[0]
    return draw_jitter_rows([u.rng for u in units], np.diff(bounds),
                            unit._jitter_sigma, unit._jitter_floor,
                            unit._spike_prob, unit._spike_ns)


def _div(values: np.ndarray, divisor: int) -> np.ndarray:
    """``values // divisor``: a shift when ``divisor`` is a power of
    two (NumPy's int64 division is far slower)."""
    if divisor & (divisor - 1):
        return values // divisor
    return values >> (divisor.bit_length() - 1)


def _mod(values: np.ndarray, divisor: int) -> np.ndarray:
    """``values % divisor``, a mask for a power of two."""
    if divisor & (divisor - 1):
        return values % divisor
    return values & (divisor - 1)


def _row_sums(values: np.ndarray, bounds: np.ndarray) -> list:
    """Per-row sums of ``values`` (rows non-empty), as ints."""
    return np.add.reduceat(values, bounds[:-1], dtype=np.int64).tolist()


def _prepass(units: list, bounds: np.ndarray, mr_ids: np.ndarray, offsets,
             sizes):
    """The timing-free part of each row's consecutive admissions to its
    unit (rows as in :func:`admit_closed_loop_rows`).

    Returns ``(det, first_line, last_line)``: each request's
    deterministic service time and its first/last touched line.
    Stats, caches and history registers advance exactly as the scalar
    :meth:`TranslationUnit.admit` loop would leave them.  The split
    works because most of ``admit`` does not depend on timing:

    * alignment and segment geometry vectorize directly, and the
      wave term is looked up per in-segment offset in a table of
      ``admit``'s own expression (:func:`_wave_table`);
    * the history penalties (MR switch, segment switch, same-line
      lock) compare each request with its predecessor (a row's first
      request with its unit's history registers) — a shifted
      comparison;
    * the MPT and MTT access sequences depend only on the MR ids
      and segments, so they replay up front; an access repeating
      the previous key is a guaranteed MRU hit whose
      ``move_to_end`` is a no-op, folded into the hit counter, so
      only the key changes touch the caches, every row's in one bulk
      replay (:func:`~repro.rnic.caches.access_rows`).  A single-MR
      cohort is the case with one MPT access.

    The deterministic service components are accumulated
    left-to-right in the scalar path's order: base + alignment +
    segment + wave + mr_switch + line_lock + cache_miss (the jitter
    is added before :meth:`TranslationUnit._drain`); elementwise adds
    in the same order are the same IEEE-754 operations.
    """
    unit = units[0]
    n = len(mr_ids)
    starts = bounds[:-1]
    line_bytes = unit._line_bytes
    seg_bytes = unit._seg_bytes

    off = np.asarray(offsets, dtype=np.int64)
    sz = np.asarray(sizes, dtype=np.int64)
    first_line = _div(off, line_bytes)
    last_line = _div(off + np.maximum(sz, 1) - 1, line_bytes)
    segment = _div(off, seg_bytes)

    # base + alignment penalty, by offset modulo the alignment
    # period, and the alignment stats from the same phases.  Each
    # penalty below is a flag times its cost: where it does not
    # apply that adds 0.0, as the scalar path does.
    period = math.lcm(8, line_bytes)
    head, sub8, sub64 = _head_table(period, line_bytes, unit._base_ns,
                                    unit._sub8_ns, unit._sub64_ns)
    phase = _mod(off, period)
    det = head[phase]
    unaligned8 = _row_sums(sub8[phase], bounds)
    unaligned64 = _row_sums(sub64[phase], bounds)

    # each row's first request against its unit's history registers
    mr0 = mr_ids[starts].tolist()
    seg0 = segment[starts].tolist()
    line0 = first_line[starts].tolist()
    first_mr = [u._last_mr is not None and mr != u._last_mr
                for u, mr in zip(units, mr0)]
    first_seg = [u._last_seg_mr is not None and (
        mr != u._last_seg_mr or seg != u._last_seg_idx)
        for u, mr, seg in zip(units, mr0, seg0)]
    first_lock = [mr == u._last_line_mr and line == u._last_line_idx
                  for u, mr, line in zip(units, mr0, line0)]

    # new_mr[i]: request i's MR differs from the previous request's
    new_mr = np.empty(n, dtype=bool)
    np.not_equal(mr_ids[1:], mr_ids[:-1], out=new_mr[1:])
    new_mr[starts] = first_mr

    seg_switch = np.empty(n, dtype=bool)
    np.not_equal(segment[1:], segment[:-1], out=seg_switch[1:])
    seg_switch[1:] |= new_mr[1:]
    seg_switch[starts] = first_seg
    segment_misses = _row_sums(seg_switch, bounds)
    det += seg_switch * unit._seg_miss_ns

    det += _wave_table(seg_bytes, unit._wave_half)[off - segment * seg_bytes]

    mr_switches = _row_sums(new_mr, bounds)
    det += new_mr * unit._mr_switch_ns

    line_lock = np.empty(n, dtype=bool)
    np.equal(first_line[1:], first_line[:-1], out=line_lock[1:])
    line_lock[1:] &= ~new_mr[1:]
    line_lock[starts] = first_lock
    det += line_lock * unit._line_lock_ns

    # cache replays: each row's first request and every key change are
    # real accesses, the repeats MRU hits
    counts = np.diff(bounds).tolist()
    cache_miss = np.zeros(n, dtype=np.float64)
    new_mr[starts] = True
    mpt_at = np.flatnonzero(new_mr)
    mpt_bounds = np.searchsorted(mpt_at, bounds)
    mpt_caches = [u.mpt_cache for u in units]
    missed = access_rows(mpt_caches, mr_ids[mpt_at], mpt_bounds,
                         np.ndarray.tolist, int_sets)
    cache_miss[mpt_at[missed]] = unit._mpt_miss_ns
    seg_switch[starts] = True
    mtt_at = np.flatnonzero(seg_switch)
    mtt_bounds = np.searchsorted(mtt_at, bounds)
    mtt_caches = [u.mtt_cache for u in units]
    mtt_mr = mr_ids[mtt_at]
    mtt_seg = segment[mtt_at]
    if (mtt_mr.min() >= 0 and mtt_mr.max() < 1 << 32
            and mtt_seg.min() >= 0 and mtt_seg.max() < 1 << _SEG_BITS):
        missed = access_rows(mtt_caches, (mtt_mr << _SEG_BITS) | mtt_seg,
                             mtt_bounds, _mtt_keys, _mtt_sets)
    else:
        missed = np.array([
            not cache.access(key)
            for cache, lo, hi in zip(mtt_caches, mtt_bounds[:-1].tolist(),
                                     mtt_bounds[1:].tolist())
            for key in zip(mtt_mr[lo:hi].tolist(), mtt_seg[lo:hi].tolist())
        ], dtype=bool)
    cache_miss[mtt_at[missed]] += unit._mtt_miss_ns
    det += cache_miss

    ends = bounds[1:] - 1
    rows = zip(units, counts, unaligned8, unaligned64, segment_misses,
               mr_switches, np.diff(mpt_bounds).tolist(),
               np.diff(mtt_bounds).tolist(), mr_ids[ends].tolist(),
               segment[ends].tolist(), first_line[ends].tolist())
    for (u, count, u8, u64, seg_misses, switches, mpt_n, mtt_n, last_mr,
         last_seg, last_line_idx) in rows:
        stats = u.stats
        stats.requests += count
        stats.unaligned8 += u8
        stats.unaligned64 += u64
        stats.segment_misses += seg_misses
        stats.mr_switches += switches
        u.mpt_cache.hits += count - mpt_n
        u.mtt_cache.hits += count - mtt_n
        u._last_mr = u._last_seg_mr = u._last_line_mr = last_mr
        u._last_seg_idx = last_seg
        u._last_line_idx = last_line_idx
    return det, first_line, last_line
