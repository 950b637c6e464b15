"""Canonical, byte-exact digests of regenerated artifacts.

An artifact (an :class:`~repro.experiments.result.ExperimentResult`,
a trace dataset, a CQE stream) is reduced to a JSON-able tree in which
arrays are hashed with their dtype and shape and dict keys keep
insertion order.  :func:`digests` splits it in two:

* ``digest`` covers the structure and every integer, string and bool
  (counters, event counts, labels, integer arrays).  These do not
  depend on the platform and are always compared.
* ``float_digest`` covers every float bit for bit.  numpy's SIMD
  kernels, OpenBLAS and libm differ per CPU, so it is compared only on
  the platform that recorded the reference; elsewhere the floats are
  compared through ``float_summary`` within :data:`FLOAT_RTOL`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

import numpy as np

#: Relative tolerance of a float summary compared off the recording
#: platform (last-bit differences sum to far less than this).
FLOAT_RTOL = 1e-6


def canonical(obj: Any, floats: list) -> Any:
    """A JSON-able tree of ``obj`` with every float scalar and float
    array appended to ``floats`` and left as a placeholder: the tree and
    ``floats`` together determine ``obj`` exactly."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        floats.append(obj)
        return "f"
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        if data.dtype == object:
            return ["nd-obj", list(data.shape),
                    [canonical(item, floats) for item in data.ravel().tolist()]]
        head = ["nd", data.dtype.str, list(data.shape)]
        if data.dtype.kind == "f":
            floats.append(data)
            return head
        return head + [hashlib.sha256(data.tobytes()).hexdigest()]
    if isinstance(obj, np.generic):
        return canonical(obj.item(), floats)
    if isinstance(obj, enum.Enum):
        return ["enum", type(obj).__name__, canonical(obj.value, floats)]
    if isinstance(obj, dict):
        return ["dict", [[canonical(k, floats), canonical(v, floats)]
                         for k, v in obj.items()]]
    if isinstance(obj, (list, tuple)):
        return [type(obj).__name__, [canonical(item, floats) for item in obj]]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return ["dc", type(obj).__name__,
                [[f.name, canonical(getattr(obj, f.name), floats)]
                 for f in dataclasses.fields(obj)]]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def float_summary(values: np.ndarray) -> list:
    """``[count, nan, +inf, -inf, sum, sum |x|, sum x*w]`` over the
    values, ``w`` = 1..7 by position, so a changed, dropped or moved
    value shifts it."""
    finite = values[np.isfinite(values)]
    weights = 1.0 + np.flatnonzero(np.isfinite(values)) % 7
    return [int(values.size), int(np.isnan(values).sum()),
            int(np.isposinf(values).sum()), int(np.isneginf(values).sum()),
            float(finite.sum()), float(np.abs(finite).sum()),
            float((finite * weights).sum())]


def digests(obj: Any) -> dict:
    """``digest`` (platform-independent part), ``float_digest`` (every
    float bit) and ``float_summary`` of ``obj``."""
    floats: list = []
    tree = canonical(obj, floats)
    # runs of scalars become one float64 array each
    arrays: list = []
    run: list = []
    for item in floats + [None]:
        if isinstance(item, float):
            run.append(item)
            continue
        if run:
            arrays.append(np.array(run, dtype=np.float64))
            run = []
        if item is not None:
            arrays.append(item)
    bits = hashlib.sha256()
    for array in arrays:
        bits.update(array.dtype.str.encode() + array.tobytes())
    values = np.concatenate([a.astype(np.float64).ravel() for a in arrays]) \
        if arrays else np.zeros(0)
    text = json.dumps(tree, separators=(",", ":"))
    return {"digest": hashlib.sha256(text.encode()).hexdigest(),
            "float_digest": bits.hexdigest(),
            "float_summary": float_summary(values)}


def summaries_agree(got: list, want: list) -> bool:
    """Counts equal, sums within :data:`FLOAT_RTOL` of the reference's
    magnitude (``sum |x|``)."""
    if got[:4] != want[:4]:
        return False
    scale = FLOAT_RTOL * max(abs(want[5]), 1e-12)
    return (abs(got[4] - want[4]) <= scale
            and abs(got[5] - want[5]) <= scale
            and abs(got[6] - want[6]) <= 7 * scale)
