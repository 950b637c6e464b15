"""Tests for the tree-invariant validator (and via it, deeper checks of
the tree implementation itself)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.sherman import (
    ShermanClient,
    ShermanMemoryServer,
    TreeInvariantError,
    validate_tree,
)
from repro.host import Cluster
from repro.rnic import cx5
from repro.sim.units import MEBIBYTE


def make_tree(region=16 * MEBIBYTE):
    cluster = Cluster(seed=0)
    ms = cluster.add_host("ms", spec=cx5())
    cs = cluster.add_host("cs", spec=cx5())
    server = ShermanMemoryServer(ms, region_size=region)
    client = ShermanClient(cluster.connect(cs, ms), server)
    return server, client


def test_empty_tree_is_valid():
    server, _ = make_tree()
    stats = validate_tree(server)
    assert stats.leaves == 1
    assert stats.entries == 0
    assert stats.height == 0


def test_large_random_tree_is_valid():
    server, client = make_tree()
    rng = random.Random(5)
    keys = rng.sample(range(1, 10**6), 900)
    for key in keys:
        client.insert(key, b"v")
    stats = validate_tree(server)
    assert stats.entries == 900
    assert stats.height >= 2
    assert stats.leaves > 50


def test_validator_catches_corruption():
    server, client = make_tree()
    for key in range(1, 100):
        client.insert(key, b"v")
    # corrupt: flip a leaf's fence
    root = server.root_offset
    from repro.apps.sherman.layout import InternalNode

    node = InternalNode.unpack(server.read_node_local(root))
    victim_leaf = node.children[0]
    raw = bytearray(server.read_node_local(victim_leaf))
    raw[16:24] = (12345).to_bytes(8, "little")   # low_key field
    server.host.memory.write(server.mr.addr + victim_leaf, bytes(raw))
    with pytest.raises(TreeInvariantError):
        validate_tree(server)


def test_validator_catches_held_lock():
    server, client = make_tree()
    client.insert(1, b"v")
    server.host.memory.write_u64(server.mr.addr + server.root_offset, 5)
    with pytest.raises(TreeInvariantError):
        validate_tree(server)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(
    st.tuples(st.sampled_from(["insert", "update"]),
              st.integers(min_value=1, max_value=300)),
    min_size=1, max_size=80,
))
def test_property_tree_always_valid_after_any_op_sequence(ops):
    server, client = make_tree()
    entries = set()
    for op, key in ops:
        if op == "insert":
            client.insert(key, b"x")
            entries.add(key)
        else:
            client.update(key, b"y")
    stats = validate_tree(server)
    assert stats.entries == len(entries)
