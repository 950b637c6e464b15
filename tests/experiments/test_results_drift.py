"""Committed results cannot drift: the ULI-probe artifacts.

Figures 5-8 and the footnote 7-8 linearity fit all come from the ULI
probe.  Each is regenerated here exactly as ``python -m
repro.experiments <name> --smoke`` does (seed 0) and its table is
byte-compared with the committed ``results/<file>.txt``.
"""

import pathlib

import pytest

from repro.experiments.runner import REGISTRY, _invoke

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"


@pytest.mark.parametrize("name", ["fig5", "fig6", "fig7", "fig8",
                                  "linearity"])
def test_smoke_table_matches_committed(name):
    result = _invoke(REGISTRY[name], 0, True, {})
    committed = (RESULTS / f"{result.experiment}.txt").read_text()
    assert result.format_table(max_rows=None) == committed
