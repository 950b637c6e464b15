"""Put the checkout root (for ``perfbench``) and ``src`` (for ``repro``)
on the import path."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
