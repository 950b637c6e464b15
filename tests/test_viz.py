"""Unit tests for terminal visualization helpers."""

import numpy as np
import pytest

from repro.viz import annotate_position, heatmap, sparkline


class TestSparkline:
    def test_monotonic_series_monotonic_density(self):
        line = sparkline([0, 1, 2, 3, 4, 5])
        blocks = " .:-=+*#%@"
        densities = [blocks.index(c) for c in line]
        assert densities == sorted(densities)

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "   "

    def test_empty(self):
        assert sparkline([]) == ""

    def test_long_series_bucketed(self):
        line = sparkline(np.arange(1000), width=50)
        assert len(line) == 50

    def test_extremes_use_full_range(self):
        line = sparkline([0, 100])
        assert line[0] == " " and line[-1] == "@"


class TestHeatmap:
    def test_diagonal_matrix(self):
        matrix = np.eye(3) * 10
        rendered = heatmap(matrix).splitlines()[1:]
        for i, row in enumerate(rendered):
            assert row[i] == "@"
            assert set(row) <= {"@", " "}

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            heatmap(np.zeros(3))

    def test_zero_matrix(self):
        rendered = heatmap(np.zeros((2, 2))).splitlines()[1:]
        assert all(set(row) == {" "} for row in rendered)


class TestAnnotate:
    def test_marker_position(self):
        line = annotate_position(10, 0.0)
        assert line[0] == "^"
        line = annotate_position(10, 1.0)
        assert line[9] == "^"

    def test_note_appended(self):
        assert annotate_position(5, 0.5, note="victim").endswith(" victim")

    def test_position_bounds(self):
        with pytest.raises(ValueError):
            annotate_position(10, 1.5)
