"""Property oracles for the fleet snapshot merge.

``merge_snapshots`` folds per-task snapshots in the order given.  The
fleet pass relies on three properties of that fold over random counter,
gauge and histogram snapshots:

* a fold split at any point and resumed from its partial result gives
  the same bytes as one fold (a merged snapshot is a valid input);
* the integer histogram fields do not depend on input order;
* two histograms of one metric on different bucket ladders never merge.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.fleet import FleetMergeError, merge_snapshots

#: Each metric keeps one type (and, for histograms, one bucket ladder)
#: across snapshots, as the registry guarantees within one code base.
LADDERS = {"h.latency": [1.0, 10.0, 100.0], "h.depth": [0.5, 2.0]}
SCALARS = {"c.events": "counter", "c.drops": "counter",
           "g.queue": "gauge"}

values = st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
                   allow_infinity=False)


@st.composite
def histogram_rows(draw, buckets):
    counts = draw(st.lists(st.integers(0, 50), min_size=len(buckets) + 1,
                           max_size=len(buckets) + 1))
    row = {"type": "histogram", "count": sum(counts),
           "sum": draw(values), "buckets": list(buckets), "counts": counts}
    if row["count"]:
        low, high = sorted((draw(values), draw(values)))
        row.update(min=low, max=high, mean=row["sum"] / row["count"])
    return row


@st.composite
def snapshots(draw):
    snapshot: dict = {}
    for key, kind in SCALARS.items():
        if draw(st.booleans()):
            component, name = key.split(".")
            snapshot.setdefault(component, {})[name] = {
                "type": kind, "value": draw(values)}
    for key, buckets in LADDERS.items():
        if draw(st.booleans()):
            component, name = key.split(".")
            snapshot.setdefault(component, {})[name] = \
                draw(histogram_rows(buckets))
    return snapshot


def _bytes(snapshot: dict) -> str:
    return json.dumps(snapshot, indent=2, sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(st.lists(snapshots(), max_size=8), st.data())
def test_prefix_split_merges_to_the_same_bytes(tasks, data):
    split = data.draw(st.integers(0, len(tasks)))
    resumed = merge_snapshots([merge_snapshots(tasks[:split]),
                               *tasks[split:]])
    assert _bytes(resumed) == _bytes(merge_snapshots(tasks))


@settings(max_examples=100, deadline=None)
@given(st.lists(snapshots(), min_size=1, max_size=8), st.randoms())
def test_integer_histogram_fields_are_order_independent(tasks, rng):
    shuffled = list(tasks)
    rng.shuffle(shuffled)
    forward, permuted = merge_snapshots(tasks), merge_snapshots(shuffled)
    assert forward.keys() == permuted.keys()
    for component in forward:
        assert forward[component].keys() == permuted[component].keys()
        for name, row in forward[component].items():
            if row["type"] == "histogram":
                other = permuted[component][name]
                assert (row["count"], row["counts"], row["buckets"]) == \
                    (other["count"], other["counts"], other["buckets"])


ladders = st.lists(st.floats(min_value=0.001, max_value=1e6,
                             allow_nan=False),
                   min_size=1, max_size=5, unique=True).map(sorted)


@settings(max_examples=100, deadline=None)
@given(ladders, ladders, st.lists(snapshots(), max_size=4), st.data())
def test_mismatched_bucket_ladders_always_raise(ladder_a, ladder_b,
                                                others, data):
    if ladder_a == ladder_b:
        ladder_b = ladder_b + [ladder_b[-1] * 2.0]
    rows = [data.draw(histogram_rows(ladder)) for ladder in
            (ladder_a, ladder_b)]
    tasks = [*others, {"x": {"latency": rows[0]}},
             {"x": {"latency": rows[1]}}]
    order = data.draw(st.permutations(tasks))
    with pytest.raises(FleetMergeError, match="bucket"):
        merge_snapshots(order)
