"""Set-associative LRU caches.

Used for the RNIC's on-board MPT (MR-context) and MTT (translation)
caches.  Pythia's covert channel — our baseline — works by evicting the
receiver's MPT entry; Ragnar's channels do not depend on these caches,
which is why cache-attack defenses miss them (Section II-D).
"""

from __future__ import annotations

import functools
from collections import OrderedDict, defaultdict
from typing import Hashable, Optional

import numpy as np

#: CPython hashes a non-negative int below this to itself.
HASH_MODULUS = (1 << 61) - 1
# CPython's tuple hash (xxHash-based, 3.8 on) on 64-bit builds
_XXPRIME_1 = np.uint64(11400714785074694791)
_XXPRIME_2 = np.uint64(14029467366897019727)
_XXPRIME_5 = 2870177450012600261


def int_sets(codes: np.ndarray, nsets: int) -> np.ndarray:
    """``hash(code) % nsets`` of each int64 code."""
    if len(codes) and codes.min() >= 0 and codes.max() < HASH_MODULUS:
        return codes % nsets
    return np.array([hash(code) % nsets for code in codes.tolist()],
                    dtype=np.int64)


def _pair_hashes(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """CPython's ``hash((a, b))`` of non-negative ints below
    :data:`HASH_MODULUS`, which hash to themselves."""
    acc = np.full(len(first), _XXPRIME_5, dtype=np.uint64)
    for lane in (first, second):
        acc += lane.astype(np.uint64) * _XXPRIME_2
        acc = (acc << np.uint64(31)) | (acc >> np.uint64(33))
        acc *= _XXPRIME_1
    acc += np.uint64(2 ^ _XXPRIME_5 ^ 3527539)
    acc[acc == np.uint64((1 << 64) - 1)] = 1546275796
    return acc.view(np.int64)


@functools.cache
def pair_hash_exact() -> bool:
    """Whether :func:`_pair_hashes` matches this interpreter's
    ``hash`` of 2-tuples, checked once per process on fixed pairs."""
    pairs = [(0, 0), (0, 1), (1, 0), (HASH_MODULUS - 1, (1 << 32) - 1)]
    pairs += [(i * 2654435761 % (1 << 32), i * 40503 % (1 << 31))
              for i in range(256)]
    first, second = (np.array(column, dtype=np.int64)
                     for column in zip(*pairs))
    return _pair_hashes(first, second).tolist() == [hash(p) for p in pairs]


def pair_sets(first: np.ndarray, second: np.ndarray,
              nsets: int) -> np.ndarray:
    """``hash((a, b)) % nsets`` of each pair of non-negative int64s
    below :data:`HASH_MODULUS`: vectorized when :func:`pair_hash_exact`
    holds, else through ``hash``."""
    if pair_hash_exact():
        return _pair_hashes(first, second) % nsets
    return np.array([hash(pair) % nsets for pair in
                     zip(first.tolist(), second.tolist())], dtype=np.int64)


class SetAssocCache:
    """A classic set-associative cache with per-set LRU replacement.

    A set's ``OrderedDict`` is created the first time a key maps to it:
    a CX-5 translation unit has 384 sets, and most units (one per
    synthesized trace or sweep point) touch only a few of them.
    """

    def __init__(self, entries: int, ways: int) -> None:
        if entries <= 0 or ways <= 0:
            raise ValueError("entries and ways must be positive")
        if entries % ways:
            raise ValueError(f"entries ({entries}) must divide by ways ({ways})")
        self.entries = entries
        self.ways = ways
        self.sets = entries // ways
        self._sets: defaultdict[int, OrderedDict] = defaultdict(OrderedDict)
        #: Bulk-replayed keys not yet in ``_sets`` (see :meth:`_settle`).
        self._pending: Optional[tuple] = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def set_index(self, key: Hashable) -> int:
        """The set ``key`` maps to — the mapping eviction sets target."""
        return hash(key) % self.sets

    def access(self, key: Hashable) -> bool:
        """Touch ``key``; returns True on hit.  Misses insert the key,
        evicting the set's LRU entry if the set is full."""
        # access() runs twice per translation admit (MPT + MTT), the
        # hottest cache entry point; a missing set is created here
        if self._pending is not None:
            self._settle()
        target = self._sets[hash(key) % self.sets]
        if key in target:
            target.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        if len(target) >= self.ways:
            target.popitem(last=False)
            self.evictions += 1
        target[key] = True
        return False

    def access_many(self, codes: np.ndarray, keys_of,
                    sets_of) -> np.ndarray:
        """Touch a sequence of keys in order, exactly as :meth:`access`
        on each; returns the per-access miss flags.  The one-cache case
        of :func:`access_rows`, which says what the arguments are and
        how the replay works."""
        return access_rows([self], codes, np.array([0, len(codes)]),
                           keys_of, sets_of)

    def _settle(self) -> None:
        """Insert the keys an :meth:`access_many` on an empty cache left
        as codes: each set's keys in order of their last access (the
        sets it replayed through :meth:`access` are disjoint)."""
        if self._pending is None:
            return
        codes, keys_of, sets_of = self._pending
        self._pending = None
        # the last access of each code, by position
        _, ahead = np.unique(codes[::-1], return_index=True)
        distinct = codes[np.sort(len(codes) - 1 - ahead)]
        sets = self._sets
        for key, i in zip(keys_of(distinct),
                          sets_of(distinct, self.sets).tolist()):
            sets[i][key] = True

    def probe(self, key: Hashable) -> bool:
        """Check residency without updating LRU state or counters."""
        self._settle()
        target = self._sets.get(hash(key) % self.sets)
        return target is not None and key in target

    def invalidate(self, key: Hashable) -> bool:
        """Drop ``key``; returns True if it was resident."""
        self._settle()
        target = self._sets.get(hash(key) % self.sets)
        if target is not None and key in target:
            del target[key]
            return True
        return False

    def flush(self) -> None:
        self._pending = None
        self._sets.clear()

    @property
    def occupancy(self) -> int:
        self._settle()
        return sum(len(s) for s in self._sets.values())

    def resident(self) -> list[tuple[int, list]]:
        """The resident keys, as ``(set index, keys from LRU to MRU)``
        per non-empty set, by set index."""
        self._settle()
        return sorted((index, list(target))
                      for index, target in self._sets.items() if target)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def checkpoint(self) -> tuple:
        """Counters and resident keys (LRU order) for :meth:`restore`."""
        return (self.hits, self.misses, self.evictions, self.resident())

    def restore(self, state: tuple) -> None:
        """Return to a :meth:`checkpoint`."""
        self.hits, self.misses, self.evictions, resident = state
        self._pending = None
        self._sets.clear()
        for index, keys in resident:
            self._sets[index] = OrderedDict.fromkeys(keys, True)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0


def access_rows(caches: list, codes: np.ndarray, bounds: np.ndarray,
                keys_of, sets_of) -> np.ndarray:
    """:meth:`SetAssocCache.access_many` on several caches of one
    geometry at once: cache ``r`` touches the keys of
    ``codes[bounds[r]:bounds[r + 1]]`` in order.  Returns the
    per-access miss flags.

    ``codes`` is an int64 array naming each access's key;
    ``keys_of`` maps an array of codes to their keys (a list) and
    ``sets_of`` to their set indices (``hash(key) % sets``, an array).

    The empty caches are replayed in bulk, together.  Sets are
    independent, and an empty set that no more than ``ways`` distinct
    keys reach cannot evict: each key misses exactly at its first
    access in its cache, and the set ends with its keys by last
    access.  Those keys are not even built until something reads the
    sets (:meth:`~SetAssocCache._settle`).  A set that can evict
    replays through :meth:`~SetAssocCache.access` in order.  A cache
    holding keys replays every access through ``access``: a batch of
    keys that rarely repeat (a verbs cohort's segments) costs as much
    per distinct key in bulk.
    """
    miss = np.zeros(len(codes), dtype=bool)
    empty = []
    for r, cache in enumerate(caches):
        cache._settle()
        lo, hi = int(bounds[r]), int(bounds[r + 1])
        if hi == lo:
            continue
        if any(cache._sets.values()):
            access = cache.access
            miss[lo:hi] = [not access(key) for key in keys_of(codes[lo:hi])]
        else:
            empty.append(r)
    if not empty:
        return miss
    lows = bounds[empty]
    counts = bounds[1:][empty] - lows
    if len(empty) == len(caches):
        picked = codes
        where = None
    else:
        where = np.concatenate([np.arange(lo, lo + count) for lo, count in
                                zip(lows.tolist(), counts.tolist())])
        picked = codes[where]
    m = len(picked)
    row = np.repeat(np.arange(len(empty)), counts)
    # distinct (cache, code) pairs, each at its first access: a stable
    # sort of the codes keeps each code's accesses in position order,
    # so in cache order too
    order = np.argsort(picked, kind="stable")
    ordered = picked[order]
    owner = row[order]
    head = np.empty(m, dtype=bool)
    head[0] = True
    head[1:] = (ordered[1:] != ordered[:-1]) | (owner[1:] != owner[:-1])
    starts = np.flatnonzero(head)
    first = order[starts]
    cache = caches[empty[0]]
    nsets = cache.sets
    kset = owner[starts] * nsets + sets_of(ordered[starts], nsets)
    quiet = np.bincount(kset, minlength=len(empty) * nsets)[kset] <= cache.ways
    picked_miss = np.zeros(m, dtype=bool)
    if not quiet.all():
        inverse = np.empty(m, dtype=np.intp)
        inverse[order] = np.cumsum(head) - 1
        keys = keys_of(ordered[starts])
        spilled = ~quiet[inverse]
        for p in np.flatnonzero(spilled).tolist():
            picked_miss[p] = not caches[empty[row[p]]].access(
                keys[inverse[p]])
        picked = picked[~spilled]
        counts = np.bincount(row[~spilled], minlength=len(empty))
        first = first[quiet]
    picked_miss[first] = True
    firsts = np.bincount(row[first], minlength=len(empty)).tolist()
    edges = np.concatenate(([0], np.cumsum(counts))).tolist()
    for j, r in enumerate(empty):
        cache = caches[r]
        lo, hi = edges[j], edges[j + 1]
        cache.misses += firsts[j]
        cache.hits += hi - lo - firsts[j]
        cache._pending = (picked[lo:hi], keys_of, sets_of)
    if where is None:
        return picked_miss
    miss[where] = picked_miss
    return miss
