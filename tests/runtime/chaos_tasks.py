"""Spawn-importable task functions for the supervised-runtime chaos
tests.

These must live in a real module (not a test body): the supervisor's
spawn workers re-import task functions by qualified name, exactly like
the experiments registry.  Several tasks coordinate across attempts
through a sentinel file — the first attempt misbehaves (crashes, kills
itself, SIGSTOPs itself), later attempts find the sentinel and
succeed, which is how the tests prove retry actually recovers.
"""

from __future__ import annotations

import os
import pathlib
import signal
import time


def ok_task(tag: str) -> str:
    return f"done:{tag}"


def crash_task(message: str) -> None:
    raise RuntimeError(message)


def flaky_task(sentinel: str) -> str:
    """Crash on the first attempt, succeed once the sentinel exists."""
    path = pathlib.Path(sentinel)
    if not path.exists():
        path.write_text("attempted")
        raise RuntimeError("first attempt crashes")
    return "recovered"


def selfkill_task(sentinel: str) -> str:
    """SIGKILL our own worker process on the first attempt — the
    supervisor must classify the death from the exitcode."""
    path = pathlib.Path(sentinel)
    if not path.exists():
        path.write_text("attempted")
        os.kill(os.getpid(), signal.SIGKILL)
    return "survived"


def selfstop_task(sentinel: str) -> str:
    """SIGSTOP our own worker on the first attempt: the process stays
    alive but every thread (heartbeats included) freezes — the
    canonical silent hang the liveness check exists for."""
    path = pathlib.Path(sentinel)
    if not path.exists():
        path.write_text("attempted")
        os.kill(os.getpid(), signal.SIGSTOP)
    return "resumed"


def sleep_task(seconds: float) -> str:
    """Overrun any short deadline while beating happily."""
    time.sleep(seconds)
    return "slept"


def moody_task(sentinel: str) -> str:
    """Return a value the caller's result_failure hook rejects until
    the sentinel exists."""
    path = pathlib.Path(sentinel)
    if not path.exists():
        path.write_text("attempted")
        return "bad"
    return "good"


def write_task(target: str, payload: str) -> str:
    """Write a file — lets ordering/manifest tests see side effects."""
    path = pathlib.Path(target)
    path.write_text(payload)
    return str(path)

