"""Model-based test: the Sherman tree against a plain dict."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.sherman import ShermanClient, ShermanMemoryServer, validate_tree
from repro.host import Cluster
from repro.rnic import cx5
from repro.sim.units import MEBIBYTE


def make_client():
    cluster = Cluster(seed=0)
    ms = cluster.add_host("ms", spec=cx5())
    cs = cluster.add_host("cs", spec=cx5())
    server = ShermanMemoryServer(ms, region_size=8 * MEBIBYTE)
    return ShermanClient(cluster.connect(cs, ms), server)


ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "search", "update"]),
        st.integers(min_value=1, max_value=64),   # small key space: collisions
        st.binary(min_size=0, max_size=12),
    ),
    max_size=60,
)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops)
def test_tree_matches_dict(ops):
    client = make_client()
    model: dict[int, bytes] = {}
    for op, key, value in ops:
        if op == "insert":
            client.insert(key, value)
            model[key] = value
        elif op == "search":
            assert client.search(key) == model.get(key)
        else:  # update
            assert client.update(key, value) == (key in model)
            if key in model:
                model[key] = value
    # final sweep: every model key retrievable, and the tree holds
    # exactly the model's entries
    for key, value in model.items():
        assert client.search(key) == value
    assert validate_tree(client.server).entries == len(model)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(keys=st.lists(st.integers(min_value=1, max_value=10**6),
                     min_size=50, max_size=120, unique=True))
def test_tree_survives_many_splits(keys):
    client = make_client()
    for key in keys:
        client.insert(key, b"x")
    # a well-formed tree holding every key exactly once
    assert validate_tree(client.server).entries == len(keys)
    assert all(client.search(key) == b"x" for key in keys)
