"""Table I pinned row by row on seeds 0-3.

The experiment smoke test only checks the row count. These values are the
matrix as the detectors produce it today, so any change to the online
defender, its stream registry or the attack traces that moves a verdict
or a detection latency shows up here. ``detect_ms`` is compared exactly
(NaN when the online suite never alarms).
"""

import math

import pytest

from repro.experiments import table1

ATTACKS = ("perf-grain2", "pythia", "ragnar-priority", "ragnar-inter-mr",
           "ragnar-intra-mr")
COLUMNS = ("grain1-pfc", "harmonic", "cache-guard", "undetected", "online",
           "detect_ms")
NAN = float("nan")

#: The three deployed-defense columns and ``undetected`` do not depend
#: on the seed: (grain1-pfc, harmonic, cache-guard, undetected).
DEPLOYED = {
    "perf-grain2": (False, True, False, False),
    "pythia": (False, False, True, False),
    "ragnar-priority": (False, False, False, True),
    "ragnar-inter-mr": (False, False, False, True),
    "ragnar-intra-mr": (False, False, False, True),
}

#: Per seed, per attack: (online, detect_ms).
ONLINE = {
    0: {"perf-grain2": (False, NAN),
        "pythia": (True, 0.2917080156226509),
        "ragnar-priority": (True, 2000.0),
        "ragnar-inter-mr": (False, NAN),
        "ragnar-intra-mr": (False, NAN)},
    1: {"perf-grain2": (False, NAN),
        "pythia": (False, NAN),
        "ragnar-priority": (True, 2000.0),
        "ragnar-inter-mr": (False, NAN),
        "ragnar-intra-mr": (False, NAN)},
    2: {"perf-grain2": (False, NAN),
        "pythia": (True, 0.21322314608498427),
        "ragnar-priority": (True, 2000.0),
        "ragnar-inter-mr": (False, NAN),
        "ragnar-intra-mr": (True, 0.6974391350441713)},
    3: {"perf-grain2": (False, NAN),
        "pythia": (False, NAN),
        "ragnar-priority": (True, 2000.0),
        "ragnar-inter-mr": (False, NAN),
        "ragnar-intra-mr": (True, 0.5556598157628669)},
}


def _same(got, want) -> bool:
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("seed", sorted(ONLINE))
def test_table1_rows_pinned(seed):
    rows = table1.run(seed=seed).rows
    assert tuple(row["attack"] for row in rows) == ATTACKS
    for row in rows:
        want = DEPLOYED[row["attack"]] + ONLINE[seed][row["attack"]]
        got = tuple(row[column] for column in COLUMNS)
        assert all(_same(g, w) for g, w in zip(got, want)), (
            f"seed {seed} {row['attack']}: {dict(zip(COLUMNS, got))} "
            f"!= {dict(zip(COLUMNS, want))}")
