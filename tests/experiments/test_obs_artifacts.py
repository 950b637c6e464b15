"""--trace/--metrics/--profile artifacts from the experiments CLI.

The end-to-end observability contract: running an experiment with the
obs flags writes schema-valid trace/metrics files next to the table,
the Chrome trace is loadable, and a crashed run exports nothing and
leaves no session behind.
"""

import gc
import json
import re

import pytest

from repro import obs
from repro.experiments import table5
from repro.experiments.__main__ import main
from repro.experiments.runner import run_task
from repro.obs.exporters import validate_path, validate_paths


@pytest.fixture(autouse=True)
def clean_session():
    yield
    obs.uninstall()


def test_cli_trace_and_metrics_write_valid_artifacts(tmp_path, capsys):
    code = main(["table1", "--trace", "--metrics",
                 "--out", str(tmp_path)])
    assert code == 0
    artifacts = [tmp_path / "table1.trace.jsonl",
                 tmp_path / "table1.trace.json",
                 tmp_path / "table1.metrics.json"]
    assert all(p.exists() for p in artifacts)
    assert validate_paths(artifacts) == []
    out = capsys.readouterr().out
    for artifact in artifacts:
        assert str(artifact) in out
    # the session must not outlive the run
    assert obs.session() is None


def test_cli_profile_writes_stats(tmp_path, capsys):
    code = main(["table1", "--profile", "--out", str(tmp_path)])
    assert code == 0
    prof = tmp_path / "table1.prof.txt"
    assert prof.exists()
    assert "cumulative" in prof.read_text()
    # no obs flags -> no trace/metrics artifacts
    assert not (tmp_path / "table1.trace.jsonl").exists()


def _cycles(seed=0):
    """Builds reference cycles, so the cyclic collector has to run."""
    from repro.experiments.result import ExperimentResult
    for _ in range(20_000):
        node = []
        node.append(node)
    return ExperimentResult(experiment="cycles", title="t", rows=[{"v": 1}])


def _tiny_table5(seed=0):
    """Table V with a 16-bit payload: the CLI path, kept fast."""
    return table5.run(payload_bits=16, seed=seed)


def test_profile_opens_with_the_collector_line(tmp_path):
    callbacks = list(gc.callbacks)
    outcome = run_task("cycles", _cycles, 0, False, False, str(tmp_path),
                       profile=True)
    assert outcome.ok, outcome.error
    first = (tmp_path / "cycles.prof.txt").read_text().splitlines()[0]
    match = re.fullmatch(
        r"cyclic gc: (\d+) collections \(gen0 (\d+), gen1 (\d+), "
        r"gen2 (\d+)\), (\d+\.\d{3}) s", first)
    assert match, first
    total, gen0, gen1, gen2 = (int(match.group(i)) for i in range(1, 5))
    assert total > 0 and total == gen0 + gen1 + gen2
    # the hook lives only around the profiled attempt
    assert gc.callbacks == callbacks


def test_crashed_profiled_attempt_removes_the_collector_hook(tmp_path):
    callbacks = list(gc.callbacks)

    def boom(seed=0):
        raise RuntimeError("dead")

    outcome = run_task("boom", boom, 0, False, False, str(tmp_path),
                       profile=True)
    assert not outcome.ok
    assert gc.callbacks == callbacks


def test_table5_trace_is_chrome_loadable(tmp_path):
    """The acceptance bar: a Table V covert-channel run under --trace
    yields a Chrome-trace-event file that loads and carries the covert
    codec's spans (a tiny payload keeps the test fast; the CLI path is
    identical)."""
    outcome = run_task(
        "table5", _tiny_table5, 0, False, False, str(tmp_path),
        trace=True, metrics=True,
    )
    assert outcome.ok, outcome.error
    chrome = tmp_path / "table5.trace.json"
    assert str(chrome) in outcome.extras
    assert validate_path(chrome) == []
    payload = json.loads(chrome.read_text())
    events = payload["traceEvents"]
    assert payload["displayTimeUnit"] == "ns"
    names = {e["name"] for e in events}
    threads = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert "covert.bit" in names                    # codec instrumentation
    assert any(t.startswith("rnic.") for t in threads)
    assert any(e["ph"] == "X" for e in events)      # pipeline spans
    assert validate_path(tmp_path / "table5.metrics.json") == []


def test_failed_run_exports_nothing(tmp_path):
    def boom(seed=0):
        raise RuntimeError("dead")

    outcome = run_task("boom", boom, 0, False, False, str(tmp_path),
                       trace=True, metrics=True)
    assert not outcome.ok
    assert outcome.extras == []
    assert not (tmp_path / "boom.trace.jsonl").exists()
    assert obs.session() is None


def test_faults_retransmits_reach_the_metrics_snapshot(tmp_path, capsys):
    """The faults experiment's rnr-pressure leg retransmits, and the
    per-leg RNIC's counters land in ``faults.metrics.json``."""
    assert main(["faults", "--smoke", "--metrics",
                 "--out", str(tmp_path)]) == 0
    snapshot = json.loads((tmp_path / "faults.metrics.json").read_text())
    pressure = snapshot["rnic.faults.rnr-pressure.rnic"]
    assert pressure["retransmits"]["value"] > 0


def test_trace_sample_writes_fewer_dispatch_records(tmp_path):
    full = run_task("table5", _tiny_table5, 0, False, False,
                    str(tmp_path / "full"), trace=True)
    sampled = run_task("table5", _tiny_table5, 0, False, False,
                       str(tmp_path / "sampled"), trace=True,
                       trace_sample=100)
    assert full.ok and sampled.ok

    def dispatch_count(path):
        return sum(1 for line in path.read_text().splitlines()
                   if json.loads(line).get("cat") == "dispatch")

    full_count = dispatch_count(tmp_path / "full" / "table5.trace.jsonl")
    sampled_count = dispatch_count(
        tmp_path / "sampled" / "table5.trace.jsonl")
    # each tracer floors its own 1-in-100 count, so the merged total
    # sits just below full/100
    assert full_count // 100 - 10 <= sampled_count <= full_count // 100
    # both artifacts remain schema-valid
    assert validate_path(tmp_path / "sampled" / "table5.trace.jsonl") == []
