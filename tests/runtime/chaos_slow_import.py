"""A spawn-importable task whose module is slow to import in a worker.

Importing this module in a spawned worker sleeps :data:`IMPORT_DELAY_S`
first, standing in for interpreter start-up and task-module imports
on a loaded host.  The test process itself imports it without the
delay: spawn names the child's process before it unpickles (and so
imports) the task, and only the test process is ``MainProcess``.
"""

from __future__ import annotations

import multiprocessing
import time

#: Longer than the heartbeat timeout the regression test configures.
IMPORT_DELAY_S = 1.5

if multiprocessing.current_process().name != "MainProcess":
    time.sleep(IMPORT_DELAY_S)


def ok_task(tag: str) -> str:
    return f"done:{tag}"
