"""Run reports: deterministic markdown from run-directory artifacts."""

import json
import subprocess
import sys

import pytest

from repro.obs.exporters import write_jsonl
from repro.obs.insight.report import discover_runs, render_report
from repro.obs.tracer import PHASE_COUNTER, PHASE_INSTANT, PHASE_SPAN, TraceEvent


def _make_run(run_dir, name="exp"):
    run_dir.mkdir(exist_ok=True)
    (run_dir / f"{name}.txt").write_text("metric  value\nbits    42\n")
    events = []
    for i in range(32):
        dur = 200.0 if i % 2 else 100.0
        events.append(TraceEvent("wqe", PHASE_SPAN, 1000.0 * i,
                                 "rnic.server", dur=dur))
        events.append(TraceEvent("dispatch", PHASE_INSTANT, 1000.0 * i,
                                 "sim0"))
    # a period-16 square wave over 128 samples: modulation the online
    # detectors (ewma shift, periodicity autocorrelation) must flag
    for i in range(128):
        events.append(TraceEvent(
            "bw", PHASE_COUNTER, 1000.0 * i, "telemetry",
            args={"bps": 30.0 if (i // 8) % 2 else 10.0}))
    write_jsonl(events, run_dir / f"{name}.trace.jsonl")
    (run_dir / f"{name}.metrics.json").write_text(json.dumps({
        "rnic": {
            "posted": {"type": "counter", "value": 32},
            "lat": {"type": "histogram", "count": 2, "sum": 30.0,
                    "mean": 15.0, "buckets": [10.0], "counts": [1, 1]},
        },
    }))
    return run_dir


def test_report_sections_and_byte_stability(tmp_path):
    run = _make_run(tmp_path / "run")
    report = render_report(run)
    assert report.startswith("# repro run report\n")
    assert "## exp" in report
    assert "### Station occupancy" in report
    assert "### Span latency" in report
    assert "### Slowest spans" in report
    assert "### Counter series — online detector verdicts" in report
    assert "### Metrics snapshot" in report
    # the experiment table is embedded verbatim
    assert "bits    42" in report
    # the toggling counter must be flagged by at least one detector
    assert "FLAG" in report
    # determinism: rendering twice is byte-identical
    assert render_report(run) == report


def test_report_contains_no_absolute_paths(tmp_path):
    run = _make_run(tmp_path / "run")
    report = render_report(run)
    assert str(tmp_path) not in report
    assert run.name not in report.replace("run report", "")


def test_report_failed_experiment_section(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    (run / "exp.error.txt").write_text(
        "Traceback (most recent call last):\nValueError: boom\n")
    report = render_report(run)
    assert "**FAILED**" in report
    assert "ValueError: boom" in report


def test_discover_runs_and_names_filter(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    (run / "a.txt").write_text("x")
    (run / "b.trace.jsonl").write_text("")
    (run / "c.metrics.json").write_text("{}")
    (run / "unrelated.log").write_text("x")
    assert discover_runs(run) == ["a", "b", "c"]
    assert discover_runs(run, names=["b", "zz"]) == ["b"]
    report = render_report(run, names=["a"])
    assert "## a" in report and "## b" not in report


def test_report_written_into_its_run_dir_is_not_an_experiment(tmp_path):
    # `report D --out D/run.report.md`, then render D again: the report
    # file must not surface as a phantom experiment `run`
    run = _make_run(tmp_path / "run")
    first = render_report(run)
    (run / "run.report.md").write_text(first)
    assert discover_runs(run) == ["exp"]
    assert render_report(run) == first


def test_report_empty_run_dir(tmp_path):
    run = tmp_path / "empty"
    run.mkdir()
    assert "No run artifacts found." in render_report(run)


def test_report_history_trend(tmp_path):
    run = _make_run(tmp_path / "run")
    history = tmp_path / "history"
    history.mkdir()
    for stamp, ops in (("20260101T000000Z", 1000.0),
                       ("20260102T000000Z", 1100.0)):
        (history / f"{stamp}.json").write_text(json.dumps({
            "benches": {"dispatch": {"ops_per_s": ops}}}))
    report = render_report(run, history_dir=history)
    assert "## Bench trend" in report
    assert "`20260101T000000Z.json` → `20260102T000000Z.json`" in report
    assert "+10.0%" in report
    # fewer than two archives: no trend section
    (history / "20260101T000000Z.json").unlink()
    assert "## Bench trend" not in render_report(run, history_dir=history)


def test_report_missing_dir_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        render_report(tmp_path / "nope")


def test_cli_report_writes_out_and_exit_codes(tmp_path):
    run = _make_run(tmp_path / "run")
    out = tmp_path / "report.md"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs", "report", str(run),
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("# repro run report")
    missing = subprocess.run(
        [sys.executable, "-m", "repro.obs", "report",
         str(tmp_path / "nope")],
        capture_output=True, text=True)
    assert missing.returncode == 2
