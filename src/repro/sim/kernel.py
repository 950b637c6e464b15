"""The simulation kernel: clock + event loop.

The kernel is split into an *engine core* — the heap and the fused
pop+dispatch loop — and the :class:`Simulator` facade that adds named
random streams and determinism tracing.  Two interchangeable cores
exist:

* ``repro.sim._speedups.EventCore`` — a C extension (build it with
  ``tools/build_speedups.sh``), the default when importable;
* :class:`repro.sim.event.PyEventCore` — pure Python, always
  available.

Set ``REPRO_SIM_ENGINE=python`` to force the fallback (the benchmarks
and the engine-equivalence tests use this).  Both engines implement
identical semantics — event order, counters, trace digests — so which
one is active never changes simulation results, only wall-clock speed.

The choice covers event dispatch only.  The batched verbs planner
(:mod:`repro.rnic.batch`) replays its station recurrences in plain
Python on either core, and the translation unit selects its own serial
cohort tail (:mod:`repro.rnic.translation`).
"""

from __future__ import annotations

import hashlib
import os
import struct
from typing import Any, Optional

from repro.obs import runtime as _obs
from repro.sim.errors import SimulationError
from repro.sim.event import PyEventCore
from repro.sim.random import RandomStreams

__all__ = ["Simulator", "SimulationError", "KERNEL_ENGINE"]


def _select_core() -> tuple[type, str]:
    if os.environ.get("REPRO_SIM_ENGINE", "").lower() != "python":
        try:
            from repro.sim import _speedups
            return _speedups.EventCore, "c"
        except ImportError:
            pass
    return PyEventCore, "python"


_CORE, KERNEL_ENGINE = _select_core()

#: Slots added by :class:`_SimulatorMixin` on top of an engine core.
_MIXIN_SLOTS = ("random", "_trace", "_dispatch_hooks", "_digest_hook")


class _SimulatorMixin:
    """Seeded randomness + determinism tracing over an engine core.

    The mixin multiplexes the core's single dispatch-hook slot: any
    number of ``hook(time, priority, callback)`` observers can register
    through :meth:`add_dispatch_hook`, and the core sees either ``None``
    (zero hooks — the fast drain path stays available), the lone hook
    directly (no wrapper on the digest-only or tracer-only case), or a
    fan-out closure.  Both the determinism digest and the
    :mod:`repro.obs` tracer ride this one engine-agnostic surface, so
    the C and pure-Python cores observe identically.
    """

    __slots__ = ()

    def __init__(self, seed: int = 0, trace: bool = False) -> None:
        super().__init__()
        self.random = RandomStreams(seed)
        self._trace = None
        self._digest_hook = None
        self._dispatch_hooks: tuple = ()
        if trace:
            self.enable_tracing()
        _obs.attach_simulator(self)

    # ------------------------------------------------------------------
    # Dispatch-hook multiplexing
    # ------------------------------------------------------------------
    def add_dispatch_hook(self, hook: Any) -> None:
        """Register ``hook(time, priority, callback)`` to observe every
        fired event.  Hooks fire in registration order."""
        self._dispatch_hooks = self._dispatch_hooks + (hook,)
        self._refresh_dispatch_hook()

    def remove_dispatch_hook(self, hook: Any) -> None:
        """Unregister a hook (no-op if it was never added)."""
        self._dispatch_hooks = tuple(
            h for h in self._dispatch_hooks if h is not hook)
        self._refresh_dispatch_hook()

    def _refresh_dispatch_hook(self) -> None:
        hooks = self._dispatch_hooks
        sample = 1
        if not hooks:
            self._set_trace_hook(None)
        elif len(hooks) == 1:
            hook = hooks[0]
            # A lone sampling observer (the repro.obs tracer with
            # trace_sample_rate=N) advertises its rate and an
            # unsampled recording variant; when the core can filter
            # dispatches itself, skipped events never cross into
            # Python at all.  Multiplexed hooks (digest + tracer)
            # can't use this — the digest needs every event — so the
            # fan-out path leaves the observer's own sampling in
            # charge.
            rate = getattr(hook, "dispatch_sample_rate", 1)
            unsampled = getattr(hook, "unsampled", None)
            if rate > 1 and unsampled is not None and \
                    hasattr(self, "_set_trace_sample"):
                self._set_trace_hook(unsampled)
                sample = rate
            else:
                self._set_trace_hook(hook)
        else:
            def fanout(time: float, priority: int, callback: Any,
                       _hooks=hooks) -> None:
                for observer in _hooks:
                    observer(time, priority, callback)
            self._set_trace_hook(fanout)
        setter = getattr(self, "_set_trace_sample", None)
        if setter is not None:
            setter(sample)

    # ------------------------------------------------------------------
    # Determinism tracing (see repro.lint.determinism)
    # ------------------------------------------------------------------
    def enable_tracing(self) -> None:
        """Start folding every fired event's (time, priority, callback)
        into a running digest.  Two identical-seed runs of a
        deterministic workload produce identical digests; any divergence
        pinpoints the first nondeterministic event ordering."""
        if self._trace is None:
            self._trace = hashlib.blake2b(digest_size=16)
            self._install_digest_hook()

    def _install_digest_hook(self) -> None:
        update = self._trace.update
        pack = struct.pack

        def hook(time: float, priority: int, callback: Any) -> None:
            label = getattr(callback, "__qualname__",
                            type(callback).__name__)
            update(pack("<dq", time, priority))
            update(label.encode("utf-8", "replace"))

        self._digest_hook = hook
        self.add_dispatch_hook(hook)

    @property
    def trace_digest(self) -> Optional[str]:
        """Hex digest of the event trace, or ``None`` when tracing is
        off."""
        if self._trace is None:
            return None
        return self._trace.hexdigest()

    def reset(self) -> None:
        """Clear the queue and rewind the clock (random streams persist;
        an enabled trace digest restarts empty; other dispatch hooks
        stay registered)."""
        super().reset()
        if self._trace is not None:
            self.remove_dispatch_hook(self._digest_hook)
            self._trace = hashlib.blake2b(digest_size=16)
            self._install_digest_hook()


class Simulator(_SimulatorMixin, _CORE):
    """A nanosecond-resolution discrete-event simulator.

    Usage::

        sim = Simulator(seed=7)
        sim.schedule(100.0, lambda: print("at t=100ns"))
        sim.run()

    The kernel is single-threaded and deterministic: equal-time events
    fire in scheduling order (priority, then scheduling sequence, break
    ties), and all randomness flows through the named streams of
    :class:`~repro.sim.random.RandomStreams`.

    ``schedule``/``schedule_at`` return an opaque handle; pass it to
    :meth:`cancel` to lazily cancel the event.  The hot methods
    (``schedule``, ``step``, ``run``) are implemented by the selected
    engine core — see the module docstring.
    """

    __slots__ = _MIXIN_SLOTS


def make_simulator_class(core: type) -> type:
    """Build a Simulator class over an explicit engine core.

    Used by the engine-equivalence tests to drive the pure-Python core
    even when the C extension is importable.
    """
    return type("Simulator_" + core.__name__, (_SimulatorMixin, core),
                {"__slots__": _MIXIN_SLOTS})
