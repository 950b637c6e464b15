"""Integration and property tests for the Sherman-style B+ tree."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.sherman import ShermanClient, ShermanMemoryServer
from repro.apps.sherman.layout import NodeHeader
from repro.host import Cluster
from repro.rnic import cx5
from repro.sim.units import MEBIBYTE


def make_tree(num_clients=1, region=8 * MEBIBYTE):
    cluster = Cluster(seed=0)
    ms = cluster.add_host("ms", spec=cx5())
    server = ShermanMemoryServer(ms, region_size=region)
    clients = []
    for i in range(num_clients):
        cs = cluster.add_host(f"cs{i}", spec=cx5())
        clients.append(
            ShermanClient(cluster.connect(cs, ms), server, client_id=i + 1)
        )
    return cluster, server, clients


class TestBasicOps:
    def test_empty_tree_search(self):
        _, _, (client,) = make_tree()
        assert client.search(42) is None

    def test_insert_and_search(self):
        _, _, (client,) = make_tree()
        client.insert(42, b"answer")
        assert client.search(42) == b"answer"
        assert client.search(43) is None

    def test_insert_overwrites(self):
        _, _, (client,) = make_tree()
        client.insert(1, b"a")
        client.insert(1, b"b")
        assert client.search(1) == b"b"

    def test_update_existing(self):
        _, _, (client,) = make_tree()
        client.insert(10, b"old")
        assert client.update(10, b"new") is True
        assert client.search(10) == b"new"

    def test_update_missing_returns_false(self):
        _, _, (client,) = make_tree()
        assert client.update(10, b"x") is False

    def test_key_bounds_rejected(self):
        _, _, (client,) = make_tree()
        with pytest.raises(ValueError):
            client.insert(0, b"v")

    def test_bad_client_id(self):
        cluster, server, (client,) = make_tree()
        with pytest.raises(ValueError):
            ShermanClient(client.conn, server, client_id=0)


class TestSplits:
    def test_leaf_split_preserves_all_keys(self):
        _, _, (client,) = make_tree()
        keys = list(range(1, 40))
        for k in keys:
            client.insert(k, f"v{k}".encode())
        for k in keys:
            assert client.search(k) == f"v{k}".encode(), k

    def test_root_grows(self):
        _, server, (client,) = make_tree()
        for k in range(1, 40):
            client.insert(k, b"v")
        root = NodeHeader.unpack(server.read_node_local(server.root_offset))
        assert root.level >= 1

    def test_deep_tree(self):
        _, server, (client,) = make_tree(region=16 * MEBIBYTE)
        rng = random.Random(3)
        keys = rng.sample(range(1, 10**6), 1200)
        for k in keys:
            client.insert(k, str(k).encode())
        root = NodeHeader.unpack(server.read_node_local(server.root_offset))
        assert root.level >= 2
        for k in rng.sample(keys, 100):
            assert client.search(k) == str(k).encode()

    def test_sequential_and_reverse_inserts(self):
        for ordering in (range(1, 200), range(199, 0, -1)):
            _, _, (client,) = make_tree()
            for k in ordering:
                client.insert(k, b"x")
            assert all(client.search(k) == b"x" for k in range(1, 200))


class TestMultiClient:
    def test_two_clients_see_each_other(self):
        _, _, (a, b) = make_tree(num_clients=2)
        a.insert(1, b"from-a")
        assert b.search(1) == b"from-a"
        b.insert(2, b"from-b")
        assert a.search(2) == b"from-b"

    def test_interleaved_inserts(self):
        _, _, (a, b) = make_tree(num_clients=2)
        for k in range(1, 120):
            (a if k % 2 else b).insert(k, str(k).encode())
        for k in range(1, 120):
            assert a.search(k) == str(k).encode()
            assert b.search(k) == str(k).encode()

    def test_stale_cache_recovery(self):
        """Client A caches the tree shape, B splits nodes under it; A
        must still find every key via fence-key fallback."""
        _, _, (a, b) = make_tree(num_clients=2)
        for k in range(1, 30):
            a.insert(k, b"a")          # A warms its cache
        for k in range(1000, 1200):
            b.insert(k, b"b")          # B forces splits on the right
        for k in range(1000, 1200):
            assert a.search(k) == b"b"


class TestVictimHelpers:
    def test_locate_entry_is_64_byte_aligned(self):
        _, _, (client,) = make_tree()
        for k in range(1, 12):
            client.insert(k, b"v")
        node_offset, entry_offset = client.locate_entry(5)
        assert entry_offset % 64 == 0
        assert entry_offset >= 64  # past the header

    def test_read_entry_at(self):
        _, _, (client,) = make_tree()
        client.insert(7, b"seven")
        node_offset, entry_offset = client.locate_entry(7)
        entry = client.read_entry_at(node_offset, entry_offset)
        assert entry.key == 7
        assert entry.value == b"seven"

    def test_locate_missing_key(self):
        _, _, (client,) = make_tree()
        with pytest.raises(KeyError):
            client.locate_entry(12345)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(min_value=1, max_value=10**9),
                min_size=1, max_size=60, unique=True))
def test_property_inserted_keys_are_found(keys):
    """Property: after inserting any unique key set, every key is
    retrievable and absent keys stay absent."""
    _, _, (client,) = make_tree()
    for k in keys:
        client.insert(k, (k % 251).to_bytes(1, "little"))
    for k in keys:
        assert client.search(k) == (k % 251).to_bytes(1, "little")
    absent = max(keys) + 1
    assert client.search(absent) is None
