"""Baseline and CLI behaviour of the flow pass."""

import json
import pathlib

from repro.lint.__main__ import main
from repro.lint.flow import run_flow
from repro.lint.flow.baseline import Baseline, load_baseline

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "flow"


def write_pkg(tmp_path, body):
    pkg = tmp_path / "repro" / "experiments"
    pkg.mkdir(parents=True)
    runner = pkg / "runner.py"
    runner.write_text(body, encoding="utf-8")
    return runner


DIRTY = "def run_task(samples):\n    return sum(set(samples))\n"


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------

def test_baseline_suppresses_known_findings(tmp_path):
    write_pkg(tmp_path, DIRTY)
    first = run_flow([str(tmp_path)])
    assert not first.clean

    baseline = Baseline(ff.fingerprint for ff in first.findings)
    second = run_flow([str(tmp_path)], baseline=baseline)
    assert second.clean
    assert second.baselined == len(first.findings)


def test_baseline_round_trips_through_disk(tmp_path):
    write_pkg(tmp_path, DIRTY)
    report = run_flow([str(tmp_path)])
    baseline = Baseline(ff.fingerprint for ff in report.findings)

    path = tmp_path / "baseline.json"
    baseline.save(path)
    loaded = load_baseline(path)
    assert loaded is not None
    assert sorted(loaded) == sorted(baseline)


def test_missing_baseline_loads_as_none(tmp_path):
    assert load_baseline(tmp_path / "absent.json") is None


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_cli_flow_fails_on_dirty_fixture(capsys):
    code, out = run_cli(["--flow", str(FIXTURES / "rag100" / "dirty")],
                        capsys)
    assert code == 1
    assert "RAG100" in out


def test_cli_flow_passes_on_clean_fixture(capsys):
    code, out = run_cli(["--flow", str(FIXTURES / "rag100" / "clean")],
                        capsys)
    assert code == 0
    assert "0 finding(s)" in out


def test_cli_flow_json_format(capsys):
    code, out = run_cli(["--flow", "--format", "json",
                         str(FIXTURES / "rag101" / "dirty")], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["clean"] is False
    assert {f["rule_id"] for f in payload["findings"]} == {"RAG101"}


def test_cli_flow_sarif_format(capsys):
    code, out = run_cli(["--flow", "--format", "sarif",
                         str(FIXTURES / "rag102" / "dirty")], capsys)
    assert code == 1
    sarif = json.loads(out)
    assert sarif["version"] == "2.1.0"
    (run,) = sarif["runs"]
    assert {r["ruleId"] for r in run["results"]} == {"RAG102"}
    (result,) = run["results"]
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1 and region["startColumn"] >= 1


def test_cli_classic_sarif_format(capsys):
    """--format sarif works on the per-file path too (satellite)."""
    classic = (pathlib.Path(__file__).resolve().parents[1] / "fixtures"
               / "repro" / "rag007_unit_literal.py")
    code, out = run_cli([str(classic), "--format", "sarif"], capsys)
    assert code == 1
    sarif = json.loads(out)
    assert {r["ruleId"] for r in sarif["runs"][0]["results"]} == {"RAG007"}


def test_cli_update_baseline_then_clean(tmp_path, capsys):
    write_pkg(tmp_path, DIRTY)
    baseline = tmp_path / "baseline.json"
    code, out = run_cli(["--flow", str(tmp_path),
                         "--baseline", str(baseline),
                         "--update-baseline"], capsys)
    assert code == 0
    assert "baseline updated" in out

    code, out = run_cli(["--flow", str(tmp_path),
                         "--baseline", str(baseline)], capsys)
    assert code == 0
    assert "1 baselined" in out


def test_cli_list_rules_includes_flow_pack(capsys):
    code, out = run_cli(["--list-rules"], capsys)
    assert code == 0
    for rule_id in ("RAG100", "RAG101", "RAG102",
                    "RAG103", "RAG104", "RAG105"):
        assert rule_id in out
