"""SHA-256 pins of the Figure 13 datasets.

Trace synthesis may be restructured for speed, never for output: the
smoke dataset (``per_class=60``, the CLI default) and two classes at
``--full``'s size (395 traces, more than six blocks of a class batch)
must keep these exact bytes.
"""

import hashlib

import pytest

from repro.side import SnoopDataset, TraceSynthesizer


def sha256(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def test_smoke_dataset_bytes():
    dataset = SnoopDataset.generate(per_class=60, seed=0)
    assert dataset.x.shape == (1020, 1, 257)
    assert sha256(dataset.x) == (
        "5b423611268e9f893ddfae58228bdf74236320ecf07a212ca9e250faba16292d")
    assert sha256(dataset.y) == (
        "294247ad869e051cbe20c4420a8a193ddcd92f71462e78d16a463877717f4b8e")


@pytest.mark.parametrize("label, digest", [
    (3, "44e9d70548b0ac3f18d1af631ffb3677e6208bf5c41eb538de426363c73484ab"),
    (16, "ae46e52d3989656835a7e7ab44addf5c7134dce1b28d76a5e66069796cbeb025"),
])
def test_full_scale_class_bytes(label, digest):
    traces = TraceSynthesizer(seed=0).class_traces(label, 395)
    assert traces.shape == (395, 257)
    assert sha256(traces) == digest
