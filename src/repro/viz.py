"""Terminal visualization helpers.

Everything in this reproduction runs offline, so the "figures" are
ASCII/Unicode renderings: sparklines for bandwidth traces and
heatmaps for confusion matrices.  Used by the
examples and handy in a REPL::

    >>> from repro.viz import sparkline
    >>> sparkline([1, 5, 2, 8, 3])
    ' =.#:'
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_BLOCKS = " .:-=+*#%@"


def _normalize(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return arr
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


def sparkline(values: Sequence[float], width: int = 72) -> str:
    """Render a series as one line of density characters."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return ""
    if arr.size > width:
        # average into `width` buckets rather than subsampling
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.asarray([
            arr[a:b].mean() if b > a else arr[min(a, arr.size - 1)]
            for a, b in zip(edges[:-1], edges[1:])
        ])
    scaled = (_normalize(arr) * (len(_BLOCKS) - 1)).round().astype(int)
    return "".join(_BLOCKS[i] for i in scaled)


def heatmap(matrix, row_label: str = "true", col_label: str = "pred") -> str:
    """Density heatmap of a 2-D matrix (e.g. a confusion matrix)."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"need a 2-D matrix, got shape {arr.shape}")
    peak = float(arr.max())
    lines = [f"{row_label} \\ {col_label}"]
    for row in arr:
        if peak > 0:
            cells = ((row / peak) * (len(_BLOCKS) - 1)).round().astype(int)
        else:
            cells = np.zeros(len(row), dtype=int)
        lines.append("".join(_BLOCKS[i] for i in cells))
    return "\n".join(lines)


def annotate_position(length: int, position: float, marker: str = "^",
                      note: str = "") -> str:
    """A one-line marker under a sparkline (e.g. the victim's offset)."""
    if not 0.0 <= position <= 1.0:
        raise ValueError(f"position must be in [0, 1], got {position}")
    index = min(int(position * (length - 1)), length - 1) if length > 1 else 0
    line = [" "] * length
    line[index] = marker
    return "".join(line) + (f" {note}" if note else "")
