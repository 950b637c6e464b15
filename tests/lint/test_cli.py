"""CLI behaviour: exit codes, formats, fixture detection, excludes."""

import json
import pathlib

import pytest

from repro.lint.__main__ import main

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures" / "repro"

ALL_RULES = {"RAG001", "RAG003", "RAG004",
             "RAG005", "RAG006", "RAG007", "RAG008"}


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_every_rule_fires_on_its_fixture_file(capsys):
    """Each RAGxxx rule has a dedicated violating fixture, and linting
    that file alone exits nonzero naming the rule."""
    for rule_id in sorted(ALL_RULES):
        matches = sorted(FIXTURES.rglob(f"{rule_id.lower()}_*.py"))
        assert matches, f"no fixture for {rule_id}"
        code, out = run_cli([str(matches[0])], capsys)
        assert code == 1, f"{rule_id} fixture should fail the lint"
        assert rule_id in out


def test_fixture_corpus_trips_all_rules_at_once(capsys):
    code, out = run_cli([str(FIXTURES)], capsys)
    assert code == 1
    assert ALL_RULES <= {token for token in out.split() if token.startswith("RAG")}


def test_clean_fixture_exits_zero(capsys):
    code, out = run_cli([str(FIXTURES / "clean_module.py")], capsys)
    assert code == 0
    assert "0 finding(s)" in out


def test_suppressed_fixture_exits_zero_but_counts(capsys):
    code, out = run_cli([str(FIXTURES / "suppressed_module.py")], capsys)
    assert code == 0
    assert "3 suppressed" in out


def test_include_suppressed_prints_them(capsys):
    _, out = run_cli([str(FIXTURES / "suppressed_module.py"),
                      "--include-suppressed"], capsys)
    assert "(suppressed)" in out


def test_json_format_is_machine_readable(capsys):
    code, out = run_cli([str(FIXTURES / "rag007_unit_literal.py"),
                         "--format", "json"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["clean"] is False
    assert {f["rule_id"] for f in payload["findings"]} == {"RAG007"}
    finding = payload["findings"][0]
    assert {"path", "line", "col", "severity", "message"} <= set(finding)


def test_exclude_prunes_directory_walks(capsys):
    code, _ = run_cli([str(FIXTURES), "--exclude", str(FIXTURES)], capsys)
    assert code == 0


def test_explicit_file_beats_exclude(capsys):
    code, _ = run_cli([str(FIXTURES / "rag007_unit_literal.py"),
                       "--exclude", str(FIXTURES)], capsys)
    assert code == 1


def test_list_rules(capsys):
    code, out = run_cli(["--list-rules"], capsys)
    assert code == 0
    assert ALL_RULES <= set(out.split())
    # retired: RAG100 and RAG104 (--flow) cover them
    assert not {"RAG002", "RAG009"} & set(out.split())


def test_audit_subcommand_runs_inter_mr(capsys):
    code, out = run_cli(["--audit", "inter-mr", "--seed", "5"], capsys)
    assert code == 0
    assert "deterministic" in out


def test_missing_path_is_a_usage_error(capsys):
    """A typo'd path must not look like a clean run."""
    with pytest.raises(SystemExit) as exc:
        main(["does/not/exist.py"])
    assert exc.value.code == 2
    assert "no such file" in capsys.readouterr().err


def test_single_run_audit_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--audit", "inter-mr", "--runs", "1"])
    assert exc.value.code == 2
