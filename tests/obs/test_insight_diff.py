"""Run-to-run diff: tolerances, regressions, exit codes."""

import json
import subprocess
import sys

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.insight.diff import diff_runs


def _write_metrics(run_dir, posted=100, lat_sum=500.0):
    (run_dir / "exp.metrics.json").write_text(json.dumps({
        "rnic": {
            "posted": {"type": "counter", "value": posted},
            "lat": {"type": "histogram", "count": 10, "sum": lat_sum,
                    "buckets": [10.0], "counts": [5, 5]},
        },
    }))


def _write_bench(run_dir, ops=1000.0):
    (run_dir / "BENCH_simulator.json").write_text(json.dumps({
        "benches": {"dispatch": {"ops_per_s": ops}}}))


def _make_run(run_dir, posted=100, ops=1000.0, table="bits 42\n"):
    run_dir.mkdir()
    (run_dir / "exp.txt").write_text(table)
    _write_metrics(run_dir, posted=posted)
    _write_bench(run_dir, ops=ops)
    return run_dir


def test_identical_runs_diff_clean(tmp_path):
    a = _make_run(tmp_path / "a")
    b = _make_run(tmp_path / "b")
    result = diff_runs(a, b)
    assert result.ok
    assert not result.regressions
    assert result.render().endswith("diff: ok\n")


def test_metric_drift_beyond_tolerance_regresses(tmp_path):
    a = _make_run(tmp_path / "a", posted=100)
    b = _make_run(tmp_path / "b", posted=150)  # +50% > 20% tolerance
    result = diff_runs(a, b)
    assert not result.ok
    assert any("rnic.posted.value" in r for r in result.regressions)
    # a wider tolerance absorbs the same drift
    assert diff_runs(a, b, tolerance=0.5).ok


def test_missing_metric_regresses(tmp_path):
    a = _make_run(tmp_path / "a")
    b = _make_run(tmp_path / "b")
    (b / "exp.metrics.json").write_text(json.dumps({
        "rnic": {"posted": {"type": "counter", "value": 100}}}))
    result = diff_runs(a, b)
    assert any("only in run A" in r for r in result.regressions)


def test_bench_throughput_regression_and_improvement(tmp_path):
    # the acceptance case: a >20% dispatch-throughput drop must fail
    a = _make_run(tmp_path / "a", ops=1000.0)
    b = _make_run(tmp_path / "b", ops=700.0)
    result = diff_runs(a, b)
    assert not result.ok
    assert any("throughput regressed" in r for r in result.regressions)
    # an improvement is a note, never a regression
    up = diff_runs(b, a)
    assert up.ok
    assert any("improved" in n for n in up.notes)


def test_table_mismatch_regresses(tmp_path):
    a = _make_run(tmp_path / "a", table="bits 42\n")
    b = _make_run(tmp_path / "b", table="bits 41\n")
    result = diff_runs(a, b)
    assert any("experiment table differs" in r for r in result.regressions)


def test_trace_count_drift_is_advisory(tmp_path):
    a = _make_run(tmp_path / "a")
    b = _make_run(tmp_path / "b")
    (a / "exp.trace.jsonl").write_text('{"x": 1}\n{"x": 2}\n')
    (b / "exp.trace.jsonl").write_text('{"x": 1}\n')
    result = diff_runs(a, b)
    assert result.ok  # advisory only
    assert any("event count" in n for n in result.notes)


def test_one_sided_file_is_a_note(tmp_path):
    a = _make_run(tmp_path / "a")
    b = _make_run(tmp_path / "b")
    (a / "extra.txt").write_text("x")
    result = diff_runs(a, b)
    assert any("only in run A" in n for n in result.notes)


def test_prof_txt_is_not_compared(tmp_path):
    a = _make_run(tmp_path / "a")
    b = _make_run(tmp_path / "b")
    (a / "exp.prof.txt").write_text("profile A")
    (b / "exp.prof.txt").write_text("profile B")  # timing-shaped
    assert diff_runs(a, b).ok


def test_missing_dir_raises(tmp_path):
    a = _make_run(tmp_path / "a")
    with pytest.raises(FileNotFoundError):
        diff_runs(a, tmp_path / "nope")


def test_cli_exit_codes(tmp_path):
    a = _make_run(tmp_path / "a")
    b = _make_run(tmp_path / "b", ops=700.0)

    def run_diff(*argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.obs", "diff", *argv],
            capture_output=True, text=True)

    clean = run_diff(str(a), str(a))
    assert clean.returncode == 0, clean.stderr
    assert "diff: ok" in clean.stdout
    regressed = run_diff(str(a), str(b))
    assert regressed.returncode == 1
    assert "REGRESSION" in regressed.stdout
    missing = run_diff(str(a), str(tmp_path / "nope"))
    assert missing.returncode == 2


@pytest.mark.parametrize("name, text", [
    ("exp.metrics.json", "[1]"),
    ("fleet_metrics.json", "[1]"),
    ("BENCH_simulator.json", "[]"),
    ("exp.metrics.json", "not json"),
])
def test_non_object_json_artifact_is_an_unreadable_regression(
        tmp_path, capsys, name, text):
    a = _make_run(tmp_path / "a")
    b = _make_run(tmp_path / "b")
    (b / name).write_text(text)
    (a / name).write_text((a / name).read_text() if (a / name).exists()
                          else text)
    assert obs_main(["diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert f"REGRESSION: {name}: unreadable (" in out
