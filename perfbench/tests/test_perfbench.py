"""Tests of the benchmark's own machinery: spans, tallies, output
checks and seeded inputs.  Run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import math
import pathlib
import shutil
import subprocess
import sys

import pytest

from perfbench import run, workloads
from perfbench.digest import digests
from perfbench.spans import FinalizedTally, Recorder, Tally


class FakeClock:
    """A clock that advances one unit per read."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class Layer:
    def leaf(self) -> int:
        return 1

    def middle(self) -> int:
        return self.leaf() + self.leaf()

    def outer(self) -> int:
        return self.middle() + self.leaf()


def test_span_nesting_self_time_and_child_time():
    recorder = Recorder(clock=FakeClock())
    original = Layer.__dict__["outer"]
    recorder.wrap(Layer, "outer", "outer")
    recorder.wrap(Layer, "middle", "middle")
    recorder.wrap(Layer, "leaf", "leaf")
    try:
        assert Layer().outer() == 3
    finally:
        recorder.unwrap()
    assert Layer.__dict__["outer"] is original
    stats = recorder.stats
    assert [stats[n].calls for n in ("outer", "middle", "leaf")] == [1, 1, 3]
    for name, stat in stats.items():
        assert stat.self_s >= 0, name
        assert stat.child_s <= stat.total_s, name
    # each span reads the clock twice: a leaf lasts 1, middle 5
    # (2 leaves), outer 9 (middle + 1 leaf)
    assert (stats["leaf"].total_s, stats["leaf"].self_s) == (3.0, 3.0)
    assert (stats["middle"].total_s, stats["middle"].child_s) == (5.0, 2.0)
    assert (stats["outer"].total_s, stats["outer"].child_s) == (9.0, 6.0)


def test_reentrant_calls_are_recorded_once():
    recorder = Recorder()
    recorder.wrap(Layer, "middle", "work")
    recorder.wrap(Layer, "leaf", "work")
    try:
        Layer().middle()
    finally:
        recorder.unwrap()
    assert recorder.stats["work"].calls == 1
    assert recorder.stats["work"].child_s == 0.0


def test_wrap_outcomes_and_units():
    recorder = Recorder()

    class Channel:
        def transmit(self, bits):
            return len(bits) > 2

    recorder.wrap(Channel, "transmit", "tx",
                  units=lambda _self, bits: len(bits),
                  outcome=lambda ok: "long" if ok else "short")
    Channel().transmit([1, 0, 1])
    Channel().transmit([1])
    recorder.unwrap()
    assert recorder.stats["tx"].units == 4
    assert recorder.stats["tx:long"].calls == 1
    assert recorder.stats["tx:short"].calls == 1


def test_counter_tally_sums_across_instances():
    from repro.rnic.counters import NICCounters

    before = NICCounters()          # built before install: not counted
    before.retransmits = 100
    tally = Tally(NICCounters, workloads._nic_counters).install()
    try:
        first, second = NICCounters(), NICCounters()
        first.record_tx(64)
        second.record_tx(128)
        second.record_tx(128)
        first.retransmits, second.timeouts = 2, 3
    finally:
        tally.uninstall()
    NICCounters()                   # built after uninstall: not counted
    total = tally.total()
    assert len(tally.instances) == 2
    assert total["tx_packets"] == 3
    assert total["retransmits"] == 2
    assert total["timeouts"] == 3


def test_counters_since_a_mark_are_bit_exact():
    from repro.rnic.translation import TranslationStats

    tally = Tally(TranslationStats, workloads._translation_stats).install()
    try:
        TranslationStats().bank_wait_ns = 0.1
        mark = len(tally.instances)
        TranslationStats().bank_wait_ns = 0.2
    finally:
        tally.uninstall()
    assert tally.total(mark)["bank_wait_ns"] == 0.2
    # a difference of totals is not: 0.1 + 0.2 - 0.1 != 0.2
    assert tally.total()["bank_wait_ns"] - 0.1 != 0.2


def test_finalized_tally_counts_dead_and_live_instances():
    class Core:
        __slots__ = ("fired",)

        def __init__(self, fired: int) -> None:
            self.fired = fired

    tally = FinalizedTally(Core, lambda core: core.fired).install()
    try:
        kept = Core(5)
        for fired in (1, 2, 3):
            Core(fired)             # dies at once: folded by __del__
        assert tally.created == 4
        assert tally.total() == 11
        kept.fired = 7
        assert tally.total() == 13
    finally:
        tally.uninstall()
    assert "__del__" not in Core.__dict__


def _result(value: float):
    from repro.experiments.result import ExperimentResult

    return ExperimentResult(experiment="demo", title="t",
                            rows=[{"x": 1, "y": value}],
                            series={"trace": [0.5, value]})


def _check(value: float, counter: int, exact: bool) -> list:
    reference = {"covert-sweep": {"0": {"demo": workloads.artifact_digests(
        _result(0.1), [], {"nic.tx": 1})}}}
    record = {"artifacts": [dict(
        workloads.artifact_digests(_result(value), [], {"nic.tx": counter}),
        name="demo", ok=True, error="")]}
    return run.check_artifacts("covert-sweep", 0, record, reference, exact)


def test_perturbed_artifact_fails_the_output_check():
    ulp = math.nextafter(0.1, 1.0)          # one ulp off
    for exact in (True, False):
        assert _check(0.1, 1, exact) == []
        # integer outputs are compared on every platform
        assert _check(0.1, 2, exact) == [
            ("demo", "output differs from the reference")]
    assert _check(ulp, 1, True) == [
        ("demo", "float output differs from the reference")]
    # off the recording platform floats are compared within tolerance
    assert _check(ulp, 1, False) == []
    assert _check(0.1001, 1, False) == [
        ("demo", "float output outside the reference's tolerance")]
    # a seed aliasing to an unrecorded input is a failure, not a pass
    record = {"artifacts": [{"name": "demo", "ok": True, "error": ""}]}
    assert run.check_artifacts("covert-sweep", 0, record, {})


def test_fig13_accuracy_is_checked_within_tolerance():
    outputs = {"digest": "d", "float_digest": "f"}
    reference = {"fig13-snoop": {"0": {"fig13": {
        **outputs, "accuracy": {"resnet_accuracy": 0.9}}}}}

    def record(accuracy: float) -> dict:
        return {"artifacts": [{"name": "fig13", "ok": True, "error": "",
                               **outputs,
                               "accuracy": {"resnet_accuracy": accuracy}}]}

    tolerance = workloads.ACCURACY_TOLERANCE
    assert run.check_artifacts("fig13-snoop", 0, record(0.9 + tolerance / 2),
                               reference) == []
    assert run.check_artifacts("fig13-snoop", 0, record(0.9 - 2 * tolerance),
                               reference)


def test_crashed_artifact_counts_as_failed():
    record = {"artifacts": [
        {"name": "fig4", "ok": False, "error": "ValueError: boom"},
        {"name": "fig5", "ok": True, "error": "", "digest": "x",
         "float_digest": "y"},
    ]}
    reference = {"covert-sweep": {"0": {"fig5": {"digest": "x",
                                                 "float_digest": "y"}}}}
    problems = run.check_artifacts("covert-sweep", 0, record, reference)
    assert problems == [("fig4", "ValueError: boom")]
    assert run.count_ops(record, problems) == (2, 1)


def test_digest_is_exact_and_order_sensitive():
    import numpy as np

    array = np.arange(4, dtype=np.float64)
    assert digests({"a": array}) == digests({"a": array.copy()})
    assert digests({"a": array})["digest"] != \
        digests({"a": array.astype(np.float32)})["digest"]
    assert digests({"a": 1, "b": 2}) != digests({"b": 2, "a": 1})
    # the float part alone tells a one-ulp change and a moved value
    moved = digests({"a": [1.0, 2.0]}), digests({"a": [2.0, 1.0]})
    assert moved[0]["digest"] == moved[1]["digest"]
    assert moved[0]["float_digest"] != moved[1]["float_digest"]
    assert moved[0]["float_summary"] != moved[1]["float_summary"]
    with pytest.raises(TypeError):
        digests(object())


def test_seed_changes_generated_inputs():
    same = workloads.verbs_descriptors(3)
    assert same == workloads.verbs_descriptors(3)
    other = workloads.verbs_descriptors(4)
    assert other != same
    # every cohort keeps the same opcode and length multiset
    for cohort in same + other:
        assert sum(1 for d in cohort if not d[0]) == \
            workloads.WRITES_PER_COHORT
        assert sorted(d[1] for d in cohort) == sorted(
            workloads.LENGTHS * (workloads.COHORT // len(workloads.LENGTHS)))
    seeds = [workloads.input_seed(seed)
             for seed in (0, 1, workloads.CORPUS + 1)]
    assert seeds == [0, 1, 1]


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 50) == 50.0
    assert run.percentile(values, 99) == 99.0
    assert run.percentile([7.0], 99) == 7.0


def test_compare_refuses_different_settings(tmp_path, capsys):
    result = '{"correct": true, "attempted": 1, "failed": 0, "metrics": ' \
             '{"wall_s": {"value": 2.0, "unit": "s"}}}'
    a = tmp_path / "a.out"
    b = tmp_path / "b.out"
    a.write_text(f'{run.SETTINGS_TAG} {{"kernel_engine": "python"}}\n{result}\n')
    b.write_text(f'{run.SETTINGS_TAG} {{"kernel_engine": "c"}}\n{result}\n')
    assert run.compare(str(a), str(b)) == 3
    assert "kernel_engine" in capsys.readouterr().err
    assert run.compare(str(a), str(a)) == 0


def test_run_without_sources_exits_nonzero(tmp_path):
    here = pathlib.Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "covert-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_repetitions_must_agree_and_platform_gates_float_digests():
    settings = {"machine": "x86_64", "libc": "glibc", "cpu_features": "A",
                "numpy": "2"}
    summary = [1, 0, 0, 0, 1.0, 1.0, 1.0]

    def rep(ints: str, floats: str) -> dict:
        return {"settings": settings, "artifacts": [
            {"name": "faults", "ok": True, "error": "", "digest": ints,
             "float_digest": floats, "float_summary": summary}]}

    reference = {"platform": run.platform_of(settings),
                 "covert-sweep": {"0": {"faults": {
                     "digest": "a", "float_digest": "x",
                     "float_summary": summary}}}}
    assert run.verify("covert-sweep", 0, [rep("a", "x"), rep("a", "x")],
                      reference) == ([], 2, 0)
    problems, attempted, failed = run.verify(
        "covert-sweep", 0, [rep("a", "x"), rep("a", "y")], reference)
    assert (attempted, failed) == (2, 1) and len(problems) == 2
    # recorded elsewhere: float bits are not compared, the rest still is
    foreign = dict(reference, platform={**reference["platform"],
                                        "cpu_features": "B"})
    assert run.verify("covert-sweep", 0, [rep("a", "y"), rep("a", "y")],
                      foreign) == ([], 2, 0)
    assert run.verify("covert-sweep", 0, [rep("b", "y"), rep("b", "y")],
                      foreign)[2] == 2
    assert run.verify("covert-sweep", 0, [rep("a", "y"), rep("a", "z")],
                      foreign)[2] == 1


def test_rate_counts_every_wqe_and_cohort_operations():
    verbs = {"name": workloads.VERBS, "wall_s": 3.0, "ops": 64,
             "failed_ops": 2, "wqes": 64 * workloads.COHORT,
             "counters": {"nic.requests": 64 * workloads.COHORT + 256}}
    faults = {"name": "faults", "wall_s": 1.0,
              "counters": {"nic.requests": 900, "nic.retransmits": 100}}
    record = {"artifacts": [verbs, faults]}
    assert run.rep_wall(record) == 4.0
    assert run.msgs_per_s(record) == (64 * workloads.COHORT + 800) / 4.0
    assert run.count_ops(record, []) == (65, 0)
    assert run.count_ops(record, [(workloads.VERBS, "x"),
                                  ("faults", "y")]) == (65, 3)
