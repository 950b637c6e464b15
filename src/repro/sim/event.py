"""The pure-Python event-kernel core.

This is the reference implementation of the engine interface behind
:class:`~repro.sim.kernel.Simulator`; ``repro.sim._speedups.EventCore``
(built by ``tools/build_speedups.sh``) is the drop-in C twin.  The two
must stay behaviourally identical — ``tests/sim/test_engines.py`` runs
them side by side.

Design notes (this module *is* the hot path when the C core is absent):

* Heap entries are plain lists ``[time, key, callback, args]`` — never
  objects with ``__lt__``.  ``heapq``'s C implementation compares them
  lexicographically and, because ``key`` is unique, a comparison always
  terminates at index 0 or 1 without calling back into Python.
* ``key`` packs the tie-break as ``priority * 2**52 + seq``.  ``seq``
  is a monotone counter (equal-time, equal-priority events fire in
  scheduling order) and stays below ``2**52`` — 4.5e15 events, decades
  of simulated work — so the packing cannot collide.  ``priority`` is
  bounded to ``+/-2**30`` at the API edge to match the C core.
* The entry doubles as the cancellation handle: ``cancel(entry)``
  overwrites the callback slot with ``None`` (lazy deletion, O(1))
  instead of rebuilding the heap.  A dead entry costs one extra pop.
* ``run()`` pops exactly once per dispatch.  The bounded paths
  (``until``/``max_events``) pop, then push the entry back at the
  boundary instead of the old ``peek_time()`` + ``pop()`` double heap
  traversal per event.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.errors import SimulationError

#: ``key = priority * _PRI_SHIFT + seq`` — see the module docstring.
_PRI_SHIFT = 2 ** 52
_PRI_LIMIT = 2 ** 30

#: Entry indices, for readers (the hot code uses bare integers).
_TIME, _KEY, _CALLBACK, _ARGS = 0, 1, 2, 3


class PyEventCore:
    """Binary heap of ``[time, key, callback, args]`` entries with lazy
    cancellation and a fused pop+dispatch run loop."""

    __slots__ = ("now", "_heap", "_seq", "_fired", "_live", "_running",
                 "_trace_hook", "_trace_sample", "_trace_skip",
                 "trace_dispatches")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[list] = []
        self._seq = 0
        self._fired = 0
        self._live = 0
        self._running = False
        self._trace_hook: Optional[Callable[[float, int, Any], None]] = None
        #: Call the trace hook for every Nth dispatch only (see
        #: :meth:`_set_trace_sample`); 1 == every dispatch.
        self._trace_sample = 1
        self._trace_skip = 1
        #: Dispatches that occurred while a trace hook was installed,
        #: whether or not sampling forwarded them to the hook.  Monotone
        #: (survives :meth:`reset`) so observers can baseline against it.
        self.trace_dispatches = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Any:
        """Schedule ``callback(*args)`` to fire ``delay`` ns from now.

        Returns an opaque handle accepted by :meth:`cancel`.
        """
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay!r})")
        seq = self._seq = self._seq + 1
        if priority:
            if not -_PRI_LIMIT < priority < _PRI_LIMIT:
                raise SimulationError(
                    f"priority {priority} out of range (|priority| < 2^30)")
            key = priority * _PRI_SHIFT + seq
        else:
            key = seq
        entry = [self.now + delay, key, callback, args]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Any:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r} < now={self.now!r}")
        seq = self._seq = self._seq + 1
        if priority:
            if not -_PRI_LIMIT < priority < _PRI_LIMIT:
                raise SimulationError(
                    f"priority {priority} out of range (|priority| < 2^30)")
            key = priority * _PRI_SHIFT + seq
        else:
            key = seq
        entry = [time, key, callback, args]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    def cancel(self, handle: Any) -> None:
        """Lazily cancel a scheduled event (idempotent)."""
        if handle[2] is not None:
            handle[2] = None
            handle[3] = None
            self._live -= 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live (non-cancelled, unfired) events."""
        return self._live

    @property
    def events_fired(self) -> int:
        return self._fired

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
        if heap:
            return heap[0][0]
        return None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            cb = entry[2]
            if cb is None:
                continue
            self.now = entry[0]
            self._fired += 1
            self._live -= 1
            hook = self._trace_hook
            if hook is not None:
                self.trace_dispatches += 1
                skip = self._trace_skip - 1
                if skip:
                    self._trace_skip = skip
                else:
                    self._trace_skip = self._trace_sample
                    hook(entry[0], entry[1] // _PRI_SHIFT, cb)
            args = entry[3]
            if args:
                cb(*args)
            else:
                cb()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` events have fired (whichever comes first).

        When stopping at ``until``, the clock is advanced to exactly
        ``until`` so samplers see a consistent end time.
        """
        self._running = True
        heap = self._heap
        pop = heappop
        try:
            if until is None and max_events is None and \
                    self._trace_hook is None:
                # Fast drain: the common experiment shape (run to empty).
                while heap and self._running:
                    entry = pop(heap)
                    cb = entry[2]
                    if cb is None:
                        continue
                    self.now = entry[0]
                    self._fired += 1
                    self._live -= 1
                    args = entry[3]
                    if args:
                        cb(*args)
                    else:
                        cb()
                return
            # Bounded path: single pop per dispatch; an entry past the
            # horizon is pushed back (at most one push-back per run()).
            fired_here = 0
            hook = self._trace_hook
            while heap and self._running:
                if max_events is not None and fired_here >= max_events:
                    break
                entry = pop(heap)
                cb = entry[2]
                if cb is None:
                    continue
                if until is not None and entry[0] > until:
                    heappush(heap, entry)
                    break
                self.now = entry[0]
                self._fired += 1
                self._live -= 1
                fired_here += 1
                if hook is not None:
                    self.trace_dispatches += 1
                    skip = self._trace_skip - 1
                    if skip:
                        self._trace_skip = skip
                    else:
                        self._trace_skip = self._trace_sample
                        hook(entry[0], entry[1] // _PRI_SHIFT, cb)
                args = entry[3]
                if args:
                    cb(*args)
                else:
                    cb()
        finally:
            self._running = False
            if until is not None and self.now < until:
                self.now = until

    def stop(self) -> None:
        """Stop a running :meth:`run` loop after the current event."""
        self._running = False

    def reset(self) -> None:
        """Drop all pending events and rewind the clock.

        ``seq`` deliberately keeps counting so a stale handle from
        before the reset can never cancel a newly scheduled event.
        """
        self._heap.clear()
        self.now = 0.0
        self._fired = 0
        self._live = 0

    def _set_trace_hook(
        self, hook: Optional[Callable[[float, int, Any], None]]
    ) -> None:
        """Install ``hook(time, priority, callback)``, or ``None``."""
        self._trace_hook = hook

    def _set_trace_sample(self, rate: int) -> None:
        """Forward only every ``rate``-th dispatch to the trace hook
        (the countdown restarts, so the next forwarded dispatch is
        ``rate`` dispatches away).  ``trace_dispatches`` still counts
        every dispatch, so sampling observers keep exact accounting."""
        if rate < 1:
            raise ValueError(f"sample rate must be >= 1, got {rate}")
        self._trace_sample = rate
        self._trace_skip = rate
