"""Set-associative LRU caches.

Used for the RNIC's on-board MPT (MR-context) and MTT (translation)
caches.  Pythia's covert channel — our baseline — works by evicting the
receiver's MPT entry; Ragnar's channels do not depend on these caches,
which is why cache-attack defenses miss them (Section II-D).
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import Hashable


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

    def probe(self, key: Hashable) -> bool:
        """Check residency without updating LRU state or counters."""
        target = self._sets.get(hash(key) % self.sets)
        return target is not None and key in target

    def invalidate(self, key: Hashable) -> bool:
        """Drop ``key``; returns True if it was resident."""
        target = self._sets.get(hash(key) % self.sets)
        if target is not None and key in target:
            del target[key]
            return True
        return False

    def flush(self) -> None:
        self._sets.clear()

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets.values())

    def resident(self) -> list[tuple[int, list]]:
        """The resident keys, as ``(set index, keys from LRU to MRU)``
        per non-empty set, by set index."""
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
        self._sets.clear()
        for index, keys in resident:
            self._sets[index] = OrderedDict.fromkeys(keys, True)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
