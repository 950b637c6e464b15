"""The RAGxxx rule pack: Ragnar's determinism & invariant checks.

Each rule encodes one promise the simulator makes to the experiments
(see docs/LINT.md for the full rationale and the suppression syntax):

========  ==========================================================
RAG001    no wall-clock reads inside the package (CLI layer excepted)
RAG003    no exact float equality on timestamps/latencies
RAG004    no bare or over-broad ``except`` clauses
RAG005    no mutable default arguments
RAG006    no kernel-state mutation from outside ``repro/sim``
RAG007    no raw 1e6/1e9 unit literals — use ``repro.sim.units``
RAG008    no I/O calls inside sim/model layers
========  ==========================================================

Global RNG state and self-rescheduling handles are checked once, by
the whole-program pass (:mod:`repro.lint.flow.analyses`): RAG100
reports every process-global RNG call in the package, RAG104 every
schedule handle no cancel path can reach.  The ids RAG002 and RAG009
are retired, not reused.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.lint.engine import FileContext, Finding, Rule

#: The ordered default rule classes (populated by :func:`_register`).
_RULE_CLASSES: list[type[Rule]] = []


def _register(cls: type[Rule]) -> type[Rule]:
    _RULE_CLASSES.append(cls)
    return cls


def default_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in rule-id order."""
    return [cls() for cls in sorted(_RULE_CLASSES, key=lambda c: c.rule_id)]


def rule_index() -> dict[str, type[Rule]]:
    """Rule id -> rule class, for documentation and CLI listings."""
    return {cls.rule_id: cls for cls in _RULE_CLASSES}


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_aliases(tree: ast.AST) -> dict[str, str]:
    """Local name -> fully qualified import target for a module.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter as pc`` maps ``pc -> time.perf_counter``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
                else:
                    head = name.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for name in node.names:
                local = name.asname or name.name
                aliases[local] = f"{node.module}.{name.name}"
    return aliases


def resolve_target(node: ast.AST, aliases: dict[str, str]) -> Optional[str]:
    """The fully qualified dotted target of a call/attribute chain,
    resolved through the file's import aliases."""
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    resolved_head = aliases.get(head)
    if resolved_head is None:
        return name
    return f"{resolved_head}.{rest}" if rest else resolved_head


# ----------------------------------------------------------------------
# RAG001 — wall clock
# ----------------------------------------------------------------------

WALLCLOCK_TARGETS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


@_register
class WallClockRule(Rule):
    """Simulated time is ``Simulator.now``; host wall-clock reads make
    replays diverge.  The CLI layer's sanctioned entry point is
    :func:`repro.experiments.timing.wallclock`."""

    rule_id = "RAG001"
    title = "no wall-clock reads in simulator code"
    scope = ("repro/",)
    exclude = ("repro/experiments/timing.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_target(node.func, aliases)
            if target in WALLCLOCK_TARGETS:
                yield self.finding(
                    ctx, node,
                    f"wall-clock call {target}() in simulator code; use "
                    f"Simulator.now for simulated time or "
                    f"repro.experiments.timing.wallclock() in the CLI layer")


# ----------------------------------------------------------------------
# RAG003 — float equality on time-like values
# ----------------------------------------------------------------------

TIME_NAME_RE = re.compile(
    r"(?:^|_)(now|time|timestamp|latency|lat|deadline|duration)(?:$|_)"
    r"|_ns$|_us$")


def _time_named(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return None
    return name if TIME_NAME_RE.search(name) else None


@_register
class FloatEqualityRule(Rule):
    """Simulation timestamps and measured latencies are floats produced
    by arithmetic; ``==``/``!=`` on them is brittle.  Compare with
    ``math.isclose`` or an explicit epsilon."""

    rule_id = "RAG003"
    title = "no exact float equality on timestamps/latencies"
    scope = ("repro/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            comparands = [node.left, *node.comparators]
            for comparand in comparands:
                if (isinstance(comparand, ast.Constant)
                        and isinstance(comparand.value, float)):
                    yield self.finding(
                        ctx, node,
                        f"exact float comparison against "
                        f"{comparand.value!r}; use math.isclose or an "
                        f"epsilon guard")
                    break
                name = _time_named(comparand)
                if name is not None:
                    yield self.finding(
                        ctx, node,
                        f"exact equality on time-like value {name!r}; use "
                        f"math.isclose or an epsilon guard")
                    break


# ----------------------------------------------------------------------
# RAG004 — over-broad exception handling
# ----------------------------------------------------------------------

BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _broad_exception_name(node: Optional[ast.AST]) -> Optional[str]:
    if node is None:
        return "bare except"
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            name = _broad_exception_name(element)
            if name is not None:
                return name
        return None
    name = dotted_name(node)
    if name in BROAD_EXCEPTIONS:
        return name
    return None


@_register
class BroadExceptRule(Rule):
    """Swallowing ``Exception`` hides model bugs as silent behaviour
    changes (a mistyped attribute becomes an RNR retry).  Catch the
    specific expected error; re-raising handlers are exempt."""

    rule_id = "RAG004"
    title = "no bare/over-broad except clauses"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            name = _broad_exception_name(node.type)
            if name is None:
                continue
            reraises = any(
                isinstance(stmt, ast.Raise)
                for body_item in node.body
                for stmt in ast.walk(body_item))
            if reraises:
                continue
            label = name if name == "bare except" else f"except {name}"
            yield self.finding(
                ctx, node,
                f"{label} swallows unexpected errors; catch the specific "
                f"exception type (or re-raise with context)")


# ----------------------------------------------------------------------
# RAG005 — mutable default arguments
# ----------------------------------------------------------------------

MUTABLE_FACTORIES = frozenset({"list", "dict", "set", "bytearray"})


@_register
class MutableDefaultRule(Rule):
    """A mutable default is one object shared by every call — state that
    leaks across experiments and breaks replay independence."""

    rule_id = "RAG005"
    title = "no mutable default arguments"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                    kind = type(default).__name__.lower()
                    yield self.finding(
                        ctx, default,
                        f"mutable default argument ({kind} literal) in "
                        f"{node.name}(); default to None and create inside")
                elif (isinstance(default, ast.Call)
                        and isinstance(default.func, ast.Name)
                        and default.func.id in MUTABLE_FACTORIES):
                    yield self.finding(
                        ctx, default,
                        f"mutable default argument ({default.func.id}()) in "
                        f"{node.name}(); default to None and create inside")


# ----------------------------------------------------------------------
# RAG006 — kernel state is kernel-owned
# ----------------------------------------------------------------------

KERNEL_PRIVATE_ATTRS = frozenset({"_queue", "_heap"})


@_register
class KernelMutationRule(Rule):
    """``Simulator.now`` and the event queue are owned by the kernel;
    models observe them but never write them.  A model that rewinds the
    clock or edits the heap silently invalidates every event ordering
    guarantee the experiments rely on."""

    rule_id = "RAG006"
    title = "no kernel-state mutation outside repro/sim"
    scope = ("repro/",)
    exclude = ("repro/sim/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Attribute) and target.attr == "now":
                        yield self.finding(
                            ctx, node,
                            "assignment to .now outside the kernel; the "
                            "clock only advances via Simulator.run/step")
            elif isinstance(node, ast.Attribute):
                if (node.attr in KERNEL_PRIVATE_ATTRS
                        and not (isinstance(node.value, ast.Name)
                                 and node.value.id == "self")):
                    yield self.finding(
                        ctx, node,
                        f"access to event-queue internal .{node.attr} from "
                        f"outside the kernel; use the public Simulator API")


# ----------------------------------------------------------------------
# RAG007 — raw unit literals
# ----------------------------------------------------------------------

#: Magnitudes that always mean "a unit conversion" in this codebase:
#: 1e9 (ns per second / Gbps) and 1e6 (ns per millisecond).
UNIT_LITERALS = frozenset({1e9, 1e6})  # ragnar-lint: disable=RAG007

UNIT_HINTS = {1e9: "SECONDS (or GBPS / gbps())",  # ragnar-lint: disable=RAG007
              1e6: "MILLISECONDS"}  # ragnar-lint: disable=RAG007


@_register
class RawUnitLiteralRule(Rule):
    """Nanosecond/rate conversions written as bare ``1e9``/``1e6`` are
    invisible to grep and easy to mistype by a zero; they must flow
    through the named constants in :mod:`repro.sim.units`."""

    rule_id = "RAG007"
    title = "no raw 1e6/1e9 unit literals outside sim.units"
    scope = ("repro/",)
    exclude = ("repro/sim/units.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if float(value) in UNIT_LITERALS:
                hint = UNIT_HINTS[float(value)]
                yield self.finding(
                    ctx, node,
                    f"raw unit literal {value!r}; use repro.sim.units."
                    f"{hint} so the conversion is named and greppable")


# ----------------------------------------------------------------------
# RAG008 — I/O-free model layers
# ----------------------------------------------------------------------

IO_BUILTINS = frozenset({"print", "open", "input", "breakpoint"})


@_register
class KernelIORule(Rule):
    """Event callbacks in the sim/model layers must be pure state
    transitions: I/O perturbs wall-clock-sensitive callers, breaks
    output capture in the harness, and hides real telemetry paths."""

    rule_id = "RAG008"
    title = "no I/O calls in sim/model layers"
    scope = ("repro/sim/", "repro/rnic/", "repro/verbs/",
             "repro/fabric/", "repro/host/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if (isinstance(node.func, ast.Name)
                    and node.func.id in IO_BUILTINS):
                yield self.finding(
                    ctx, node,
                    f"{node.func.id}() call in a sim/model layer; kernel "
                    f"callbacks must stay I/O-free (surface data through "
                    f"telemetry or return values)")

