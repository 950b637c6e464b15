"""Committed results cannot drift.

Figures 5-8 and the footnote 7-8 linearity fit all come from the ULI
probe, and Figure 13 from the trace synthesizer and the classifier.
Each is regenerated here exactly as ``python -m repro.experiments
<name> --smoke`` does (seed 0) and its table is compared with the
committed ``results/<file>.txt``: byte for byte, except Figure 13's
trained-model accuracies, which may move within ±0.03 (the tolerance
perfbench applies to them).
"""

import pathlib
import re

import pytest

from repro.experiments.runner import REGISTRY, _invoke

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"
#: Figure 13 fields compared within ACCURACY_TOLERANCE of the committed
#: (two-decimal) value; every other cell is compared byte for byte.
FIG13_ACCURACIES = ("resnet_accuracy", "centroid_accuracy", "train_accuracy")
ACCURACY_TOLERANCE = 0.03


@pytest.mark.parametrize("name", ["fig5", "fig6", "fig7", "fig8",
                                  "linearity"])
def test_smoke_table_matches_committed(name):
    result = _invoke(REGISTRY[name], 0, True, {})
    committed = (RESULTS / f"{result.experiment}.txt").read_text()
    assert result.format_table(max_rows=None) == committed


def test_fig13_matches_committed():
    result = _invoke(REGISTRY["fig13"], 0, True, {})
    committed = (RESULTS / "fig13.txt").read_text()
    _, header, rule, summary = committed.splitlines()[:4]
    spans = [match.span() for match in re.finditer(r"-+", rule)]
    cells = {header[a:b].strip(): summary[a:b].strip() for a, b in spans}
    row = result.rows[0]
    for field in FIG13_ACCURACIES:
        want = float(cells[field])
        assert abs(row[field] - want) <= ACCURACY_TOLERANCE, (field, row[field])
        row[field] = want
    assert result.format_table(max_rows=None) == committed
