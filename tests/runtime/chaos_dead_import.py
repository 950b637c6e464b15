"""A spawn-importable task whose module kills its worker at import.

In a spawned worker the import exits the process with code 3 before
the task starts (and before the worker's first beat); the test
process, ``MainProcess``, imports it harmlessly.
"""

from __future__ import annotations

import multiprocessing
import os

if multiprocessing.current_process().name != "MainProcess":
    os._exit(3)


def ok_task(tag: str) -> str:
    return f"done:{tag}"
