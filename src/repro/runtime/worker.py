"""The worker-process side of the supervised runtime.

Kept deliberately light: a spawn child imports this module (plus the
module that defines the task function) and nothing else, so worker
startup stays cheap.  The protocol over the pipe is tiny tuples:

* ``("beat",)`` — liveness: one as soon as the worker is up (the task
  module imported, the task about to start), then one per interval
  from a daemon thread; beats stop arriving the moment the process is
  SIGSTOPped, wedged in the kernel, or dead, which is exactly the
  supervisor's hang signal.  The first beat starts the supervisor's
  silence clock, so a slow interpreter start-up is bounded by the
  deadline alone.
* ``("ok", value)`` — the task function returned ``value``.
* ``("error", exc_type, traceback)`` — the task function raised.

The pipe is written from two threads (the beat thread and the task
thread's final report), so every send holds a lock — ``Connection``
objects are not thread-safe.
"""

from __future__ import annotations

import threading
import traceback as traceback_module


def child_main(conn, fn, args, kwargs, heartbeat_interval: float) -> None:
    """Run one task attempt in a worker process, beating the pipe.

    Spawn-picklable by qualified name; ``fn`` itself must also be an
    importable module-level callable (the same constraint the old
    process pool imposed).
    """
    stop = threading.Event()
    lock = threading.Lock()

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            with lock:
                try:
                    conn.send(("beat",))
                except OSError:
                    return  # supervisor went away; nothing left to tell

    # spawn has unpickled ``fn`` (importing its module) by now: this
    # first beat tells the supervisor start-up is over
    conn.send(("beat",))
    thread = threading.Thread(target=beat, daemon=True, name="heartbeat")
    thread.start()
    try:
        value = fn(*args, **kwargs)
    except BaseException as error:  # ragnar-lint: disable=RAG004 — worker boundary: the exception is serialized over the pipe and re-classified by the supervisor; swallowing it here is the only way to report it at all
        stop.set()
        with lock:
            try:
                conn.send(("error", type(error).__name__,
                           traceback_module.format_exc()))
            except OSError:
                pass
        conn.close()
        # exit nonzero so the exitcode agrees with the report if the
        # pipe message is lost
        raise SystemExit(1)
    stop.set()
    with lock:
        conn.send(("ok", value))
    conn.close()
