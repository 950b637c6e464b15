"""Set-associative LRU caches.

Used for the RNIC's on-board MPT (MR-context) and MTT (translation)
caches.  Pythia's covert channel — our baseline — works by evicting the
receiver's MPT entry; Ragnar's channels do not depend on these caches,
which is why cache-attack defenses miss them (Section II-D).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable


class SetAssocCache:
    """A classic set-associative cache with per-set LRU replacement."""

    def __init__(self, entries: int, ways: int) -> None:
        if entries <= 0 or ways <= 0:
            raise ValueError("entries and ways must be positive")
        if entries % ways:
            raise ValueError(f"entries ({entries}) must divide by ways ({ways})")
        self.entries = entries
        self.ways = ways
        self.sets = entries // ways
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(self.sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def set_index(self, key: Hashable) -> int:
        """The set ``key`` maps to — the mapping eviction sets target."""
        return hash(key) % self.sets

    def _set_for(self, key: Hashable) -> OrderedDict:
        return self._sets[hash(key) % self.sets]

    def access(self, key: Hashable) -> bool:
        """Touch ``key``; returns True on hit.  Misses insert the key,
        evicting the set's LRU entry if the set is full."""
        # _set_for inlined: access() runs twice per translation admit
        # (MPT + MTT), which makes it the hottest cache entry point on
        # the batched descriptor path.
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
        return key in self._set_for(key)

    def invalidate(self, key: Hashable) -> bool:
        """Drop ``key``; returns True if it was resident."""
        target = self._set_for(key)
        if key in target:
            del target[key]
            return True
        return False

    def flush(self) -> None:
        for target in self._sets:
            target.clear()

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def checkpoint(self) -> tuple:
        """Counters and resident keys (LRU order) for :meth:`restore`."""
        return (self.hits, self.misses, self.evictions,
                [(index, list(target))
                 for index, target in enumerate(self._sets) if target])

    def restore(self, state: tuple) -> None:
        """Return to a :meth:`checkpoint`."""
        self.hits, self.misses, self.evictions, resident = state
        for target in self._sets:
            target.clear()
        for index, keys in resident:
            self._sets[index].update(dict.fromkeys(keys, True))

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
