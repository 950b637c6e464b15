"""Model-based test: SetAssocCache against a reference implementation."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rnic import SetAssocCache


class ReferenceCache:
    """An obviously-correct set-associative LRU cache."""

    def __init__(self, entries, ways):
        self.sets = entries // ways
        self.ways = ways
        self.data = [OrderedDict() for _ in range(self.sets)]

    def _set(self, key):
        return self.data[hash(key) % self.sets]

    def access(self, key):
        target = self._set(key)
        if key in target:
            target.move_to_end(key)
            return True
        if len(target) >= self.ways:
            target.popitem(last=False)
        target[key] = True
        return False

    def probe(self, key):
        return key in self._set(key)


operations = st.lists(
    st.tuples(
        st.sampled_from(["access", "probe", "invalidate"]),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(ops=operations)
def test_cache_matches_reference(ops):
    cache = SetAssocCache(entries=16, ways=4)
    reference = ReferenceCache(entries=16, ways=4)
    for op, key in ops:
        if op == "access":
            assert cache.access(key) == reference.access(key)
        elif op == "probe":
            assert cache.probe(key) == reference.probe(key)
        else:
            was_there = reference.probe(key)
            if was_there:
                del reference._set(key)[key]
            assert cache.invalidate(key) == was_there
    expected = [(index, list(target))
                for index, target in enumerate(reference.data) if target]
    assert cache.resident() == expected
    assert cache.occupancy == sum(len(keys) for _, keys in expected)


@settings(max_examples=100, deadline=None)
@given(ops=operations, more=operations)
def test_checkpoint_restore_and_flush_are_exact(ops, more):
    """Sets exist only once a key maps to them; a restore must rebuild
    exactly the checkpointed contents and LRU order, and a flush must
    leave a cache that behaves like a new one."""
    cache = SetAssocCache(entries=16, ways=4)
    for _, key in ops:
        cache.access(key)
    state = cache.checkpoint()
    outcomes = [cache.access(key) for _, key in more]
    after = cache.checkpoint()
    cache.restore(state)
    assert cache.checkpoint() == state
    assert [cache.access(key) for _, key in more] == outcomes
    assert cache.checkpoint() == after
    cache.flush()
    fresh = SetAssocCache(entries=16, ways=4)
    assert cache.resident() == [] and cache.occupancy == 0
    assert ([cache.access(key) for _, key in more]
            == [fresh.access(key) for _, key in more])


@settings(max_examples=100, deadline=None)
@given(ops=operations)
def test_cache_occupancy_never_exceeds_capacity(ops):
    cache = SetAssocCache(entries=16, ways=4)
    for op, key in ops:
        if op == "access":
            cache.access(key)
        assert cache.occupancy <= 16


@settings(max_examples=100, deadline=None)
@given(keys=st.lists(st.integers(0, 1000), min_size=1, max_size=100))
def test_cache_stats_are_consistent(keys):
    cache = SetAssocCache(entries=8, ways=2)
    for key in keys:
        cache.access(key)
    assert cache.hits + cache.misses == len(keys)
    assert cache.evictions <= cache.misses
    assert 0.0 <= cache.hit_rate <= 1.0
