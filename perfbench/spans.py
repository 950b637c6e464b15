"""Outside-in spans and instance tallies for the benchmark's traced run.

Nothing here touches :mod:`repro.obs`: installing obs hooks pins the
simulator to its scalar path, so a traced run would no longer measure
what an untraced run does.  Instead the benchmark wraps public
functions of each layer from its own files:

* :class:`Recorder` times calls into wrapped functions as nested
  spans.  A span's *self time* is its duration minus the time its
  child spans cover.  A wrapped function called while a span of the
  same name is open (``Connection.post_read`` calling
  ``QueuePair.post_send``) is not recorded again, so counts and totals
  are of outermost calls only.
* :class:`Tally` keeps every instance of a counter class constructed
  during the run, so simulated counters can be summed over instances
  without wrapping any per-request method.
* :class:`FinalizedTally` does the same for slotted classes that
  cannot be held alive cheaply (``Simulator``): it folds a value when
  an instance is finalized and adds the values of instances still alive.

Spans are taken around calls from outside, so they cannot split the
work inside the event loop by layer: one ``await_completions`` span
covers every station, translation and verbs callback it dispatched.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import sys
import time
from typing import Any, Callable, Iterator, Optional


@dataclasses.dataclass
class SpanStats:
    """Aggregate of every recorded span of one name."""

    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    #: Sum over calls of a per-call quantity (bits sent, samples fed).
    units: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Recorder:
    """Nested span timer over wrapped functions, aggregated per name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.stats: dict[str, SpanStats] = {}
        self._clock = clock
        #: open spans, innermost last: [name, start, child seconds]
        self._stack: list[list] = []
        self._open: set[str] = set()
        self._patches: list[tuple[Any, str, Any]] = []

    def stat(self, name: str) -> SpanStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        return stats

    # -- spans --------------------------------------------------------
    def enter(self, name: str) -> bool:
        """Open a span; returns False (and opens nothing) when a span
        of the same name is already open."""
        if name in self._open:
            return False
        self._open.add(name)
        self._stack.append([name, self._clock(), 0.0])
        return True

    def exit(self, units: float = 0.0) -> None:
        """Close the innermost span."""
        name, start, child_s = self._stack.pop()
        duration = self._clock() - start
        self._open.discard(name)
        stats = self.stat(name)
        stats.calls += 1
        stats.total_s += duration
        stats.child_s += child_s
        stats.units += units
        if self._stack:
            self._stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, name: str, units: float = 0.0) -> Iterator[None]:
        opened = self.enter(name)
        try:
            yield
        finally:
            if opened:
                self.exit(units)

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             units: Optional[Callable[..., float]] = None,
             outcome: Optional[Callable[[Any], str]] = None) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``units(*args, **kwargs)`` adds a per-call quantity to the
        span's ``units``; ``outcome(result)`` names a sub-counter
        (``<name>:<outcome>``) bumped per outermost call.  Bindings of
        the same function object imported into other ``repro`` modules
        are replaced too, so ``from x import f`` call sites are covered.
        """
        func = getattr(owner, attr)
        recorder = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enter(name):
                return func(*args, **kwargs)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                recorder.exit(units(*args, **kwargs) if units else 0.0)
                if outcome is not None:
                    recorder.stat(f"{name}:{outcome(result)}").calls += 1

        self._patches.append((owner, attr, func))
        setattr(owner, attr, wrapper)
        if not isinstance(owner, type):
            for module in list(sys.modules.values()):
                if module is owner or not getattr(
                        module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is func:
                        self._patches.append((module, key, func))
                        setattr(module, key, wrapper)

    def unwrap(self) -> None:
        """Restore every wrapped attribute (last patch first)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _wrap_init(cls: type, on_new: Callable[[Any], None]) -> Callable[[], None]:
    original = cls.__dict__.get("__init__")
    base_init = cls.__init__

    @functools.wraps(base_init)
    def init(self: Any, *args: Any, **kwargs: Any) -> None:
        base_init(self, *args, **kwargs)
        if type(self) is cls:
            on_new(self)

    cls.__init__ = init

    def restore() -> None:
        if original is None:
            del cls.__init__
        else:
            cls.__init__ = original

    return restore


class Tally:
    """Keeps every instance of ``cls`` built after :meth:`install` and
    sums ``read(instance)`` dicts over them.

    Meant for small leaf counter objects (``NICCounters``,
    ``TranslationStats``) that hold no reference back to the model, so
    keeping them alive costs a few KiB, not the simulation.
    """

    def __init__(self, cls: type, read: Callable[[Any], dict]) -> None:
        self.cls = cls
        self.read = read
        self.instances: list[Any] = []
        self._restore: Optional[Callable[[], None]] = None

    def install(self) -> "Tally":
        self._restore = _wrap_init(self.cls, self.instances.append)
        return self

    def uninstall(self) -> None:
        if self._restore is not None:
            self._restore()
            self._restore = None

    def total(self, start: int = 0) -> dict:
        """The sum over instances built since ``start`` of them."""
        return sum_dicts(self.read(obj) for obj in self.instances[start:])


class FinalizedTally:
    """Counts instances of ``cls`` and sums ``read(instance)`` over all
    of them without keeping any alive: a value is folded in when an
    instance is finalized, and :meth:`total` adds the instances still
    alive (found through the garbage collector)."""

    def __init__(self, cls: type, read: Callable[[Any], float]) -> None:
        self.cls = cls
        self.read = read
        self.created = 0
        self.folded = 0.0
        self._restore: Optional[Callable[[], None]] = None

    def install(self) -> "FinalizedTally":
        def on_new(_obj: Any) -> None:
            self.created += 1

        def finalize(obj: Any) -> None:
            self.folded += self.read(obj)

        restore_init = _wrap_init(self.cls, on_new)
        had_del = "__del__" in self.cls.__dict__
        self.cls.__del__ = finalize

        def restore() -> None:
            restore_init()
            if not had_del:
                del self.cls.__del__

        self._restore = restore
        return self

    def uninstall(self) -> None:
        if self._restore is not None:
            self._restore()
            self._restore = None

    def total(self) -> float:
        gc.collect()
        live = sum(self.read(obj) for obj in gc.get_objects()
                   if type(obj) is self.cls)
        return self.folded + live


def sum_dicts(dicts: Any) -> dict:
    """Key-wise sum of numeric dicts (keys in first-seen order)."""
    out: dict = {}
    for item in dicts:
        for key, value in item.items():
            out[key] = out.get(key, 0) + value
    return out
