"""CLI behaviour of the flow pass."""

import pathlib

from repro.lint.__main__ import main

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "flow"


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


def test_cli_list_rules_includes_flow_pack(capsys):
    code, out = run_cli(["--list-rules"], capsys)
    assert code == 0
    flow_rules = {line.split()[0] for line in out.splitlines()
                  if line.endswith("(--flow)")}
    assert flow_rules == {"RAG100", "RAG101", "RAG104", "RAG105",
                          "RAG106"}
