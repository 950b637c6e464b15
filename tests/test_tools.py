"""Tests for the release tooling."""

import pathlib
import subprocess
import sys


def test_api_doc_generator_runs():
    repo = pathlib.Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, str(repo / "tools" / "gen_api_docs.py")],
        capture_output=True, text=True, cwd=repo,
    )
    assert result.returncode == 0, result.stderr
    api = (repo / "docs" / "API.md").read_text()
    # spot-check central entries
    assert "## `repro.rnic.translation`" in api
    assert "class `TranslationUnit`" in api
    assert "## `repro.covert.intra_mr`" in api


def test_api_docs_checked_in_and_fresh_enough():
    repo = pathlib.Path(__file__).resolve().parents[1]
    api = repo / "docs" / "API.md"
    assert api.exists(), "run python tools/gen_api_docs.py"
    text = api.read_text()
    # every top-level package appears
    for package in ("repro.sim", "repro.verbs", "repro.rnic", "repro.covert",
                    "repro.side", "repro.ml", "repro.apps", "repro.defense",
                    "repro.baselines", "repro.viz"):
        assert f"`{package}" in text, package
