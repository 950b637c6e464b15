"""Per-file fact extraction for the whole-program analyses.

One :class:`FileFacts` per source file, produced by a single AST pass
and fully JSON-serializable.  Everything *file-local* is resolved here
(import aliases, nested scopes, handle fates inside one function);
everything *cross-file* (call-graph edges, reachability, escape across
helpers) is left to :mod:`repro.lint.flow.project`.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
from typing import Iterator, Optional

from repro.lint.engine import module_path_for, parse_suppressions
from repro.lint.rules import dotted_name

#: Kernel methods that return a cancellable schedule handle.
SCHEDULE_METHODS = frozenset({"schedule", "schedule_at"})

#: ``random.<fn>`` calls that draw from (or reseed) the process-global
#: stdlib RNG.
STDLIB_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "normalvariate", "gauss", "seed", "getrandbits",
    "betavariate", "expovariate", "paretovariate", "vonmisesvariate",
    "triangular", "lognormvariate", "weibullvariate", "randbytes",
})

#: ``numpy.random.<fn>`` calls on the legacy process-global RandomState.
NUMPY_LEGACY_RANDOM_FNS = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
    "normal", "exponential", "poisson", "binomial", "standard_normal",
    "bytes", "get_state", "set_state",
})

#: Call targets that read process entropy (never replayable).
ENTROPY_TARGETS = frozenset({
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.choice", "secrets.randbits",
})

#: Constructors producing a mutable container when assigned at module
#: scope (the shard-safety rules track writes to these).
MUTABLE_FACTORIES = frozenset({
    "dict", "list", "set", "bytearray",
    "collections.defaultdict", "collections.OrderedDict",
    "collections.Counter", "collections.deque",
})

#: Method names that mutate a container in place.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "appendleft",
})


def module_name_for(path: str) -> tuple[str, str]:
    """``(module_path, dotted_module)`` for a file.

    Anchored at the last ``repro`` directory component when present
    (``repro/sim/kernel.py`` -> ``repro.sim.kernel``); loose files fall
    back to their stem so fixture corpora stay analysable.
    """
    rel = module_path_for(pathlib.Path(path))
    if rel is None:
        rel = pathlib.Path(path).name
    dotted = rel[:-3] if rel.endswith(".py") else rel
    dotted = dotted.replace("/", ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return rel, dotted


# ----------------------------------------------------------------------
# Fact records (all JSON round-trippable via dataclasses.asdict)
# ----------------------------------------------------------------------

@dataclasses.dataclass
class CallFact:
    """One call or function reference inside a function body."""

    line: int
    col: int
    #: Resolved dotted target for ``form in ('direct', 'ref')`` (through
    #: the file's import aliases and local definitions); the bare method
    #: name for ``form in ('self', 'method')``.
    target: str
    #: 'direct' (resolvable call), 'self' (``self.meth(...)`` or a
    #: ``self.meth`` reference), 'method' (attribute call on an unknown
    #: object), 'ref' (a bare reference to a known function — callback
    #: registration is an edge too).
    form: str
    #: True when the call's value is discarded (expression statement).
    discarded: bool = False


@dataclasses.dataclass
class RngFact:
    """One randomness source."""

    line: int
    col: int
    #: 'global' (process-global RNG), 'entropy' (os.urandom & friends),
    #: 'seedless' (default_rng() / Generator without a seed),
    #: 'literal_seed' (default_rng(<constant>) fallback),
    #: 'loop_stream' (a named ``stream()`` drawn per element inside a
    #: loop or comprehension — RAG106's vectorized-sweep discipline).
    kind: str
    target: str


@dataclasses.dataclass
class GlobalWriteFact:
    """One write to (or reset of) a module-level name."""

    line: int
    col: int
    #: 'rebind' (``global X; X = <live value>``), 'mutate' (in-place
    #: container write), 'reset' (rebind to None / a fresh empty
    #: container, or ``.clear()``).
    kind: str
    #: Fully qualified global id, e.g. ``repro.obs.runtime._SESSION``.
    target: str


@dataclasses.dataclass
class ScheduleFact:
    """One ``schedule()``/``schedule_at()`` call and its handle's fate."""

    line: int
    col: int
    method: str
    #: 'discarded' | 'local' | 'self_attr' | 'container' | 'returned'
    #: | 'arg_passed'
    fate: str
    #: Scheduled callback: the resolved qualname for plain-name
    #: callbacks, the bare method name for ``self.X`` callbacks.
    callback: str = ""
    #: '' | 'local' | 'self' | 'lambda'
    callback_form: str = ""
    #: True when the callback is the enclosing function itself.
    self_chain: bool = False
    #: For fate='local': the handle later meets a ``cancel()`` here.
    cancelled_locally: bool = False
    #: For fate='arg_passed': resolved callee target + 0-based
    #: positional index of the handle argument.
    passed_to: str = ""
    passed_index: int = -1


@dataclasses.dataclass
class ReductionFact:
    """One potentially order-sensitive float reduction."""

    line: int
    col: int
    #: 'sum_over_set' | 'unordered_accumulation'
    kind: str
    detail: str


@dataclasses.dataclass
class ParamFates:
    """What a function does with each parameter (for escape analysis)."""

    cancelled: list[str] = dataclasses.field(default_factory=list)
    stored: list[str] = dataclasses.field(default_factory=list)
    returned: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class FunctionFacts:
    """Everything the analyses need about one function or method."""

    qualname: str            # repro.traffic.OpenLoopClient.start
    name: str                # start
    cls: str = ""            # OpenLoopClient ('' for module functions)
    line: int = 1
    params: list[str] = dataclasses.field(default_factory=list)
    calls: list[CallFact] = dataclasses.field(default_factory=list)
    rng: list[RngFact] = dataclasses.field(default_factory=list)
    writes: list[GlobalWriteFact] = dataclasses.field(default_factory=list)
    schedules: list[ScheduleFact] = dataclasses.field(default_factory=list)
    reductions: list[ReductionFact] = dataclasses.field(default_factory=list)
    param_fates: ParamFates = dataclasses.field(default_factory=ParamFates)
    #: True when the function body contains any ``.cancel(...)`` call.
    cancels: bool = False
    #: True when some return statement returns a schedule handle.
    returns_handle: bool = False


@dataclasses.dataclass
class ClassFacts:
    name: str
    line: int
    methods: list[str] = dataclasses.field(default_factory=list)
    #: True when any method body calls ``.cancel(...)``.
    cancels: bool = False


@dataclasses.dataclass
class FileFacts:
    """The per-file extraction result."""

    path: str
    module_path: str          # repro/sim/kernel.py
    module: str               # repro.sim.kernel
    aliases: dict[str, str] = dataclasses.field(default_factory=dict)
    #: Module-level names: name -> {'line': int, 'mutable': bool}.
    globals: dict[str, dict] = dataclasses.field(default_factory=dict)
    functions: list[FunctionFacts] = dataclasses.field(default_factory=list)
    classes: list[ClassFacts] = dataclasses.field(default_factory=list)
    #: RNG sites outside every function body: module and class bodies,
    #: decorators, default values (code that runs at import time).
    rng: list[RngFact] = dataclasses.field(default_factory=list)
    #: Module-level registry dicts: name -> list of resolved dotted
    #: function targets (e.g. REGISTRY in experiments/runner.py).
    registries: dict[str, list[str]] = dataclasses.field(default_factory=dict)
    #: 1-based line (as str, for JSON) -> rule ids disabled inline.
    suppressions: dict[str, list[str]] = dataclasses.field(default_factory=dict)
    parse_error: str = ""


# ----------------------------------------------------------------------
# Alias resolution (extends engine.import_aliases with relative imports)
# ----------------------------------------------------------------------

def _build_aliases(tree: ast.AST, module: str,
                   is_package: bool = False) -> dict[str, str]:
    aliases: dict[str, str] = {}
    # ``from . import x`` resolves against the containing package: the
    # module itself for an __init__.py, its parent otherwise
    package_parts = (module.split(".") if is_package
                     else module.split(".")[:-1])
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
                else:
                    head = name.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if node.level - 1 > len(package_parts):
                    continue
                base = package_parts[: len(package_parts) - (node.level - 1)]
                parts = base + ([node.module] if node.module else [])
                prefix = ".".join(parts)
            else:
                prefix = node.module or ""
            if not prefix:
                continue
            for name in node.names:
                local = name.asname or name.name
                aliases[local] = f"{prefix}.{name.name}"
    return aliases


def _resolve(node: ast.AST, aliases: dict[str, str]) -> Optional[str]:
    """Fully qualified dotted target of a Name/Attribute chain."""
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    resolved_head = aliases.get(head)
    if resolved_head is None:
        return name
    return f"{resolved_head}.{rest}" if rest else resolved_head


def _is_set_expr(node: ast.AST, set_locals: set[str]) -> bool:
    """Does this expression produce an unordered set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in {"set", "frozenset"}:
        return True
    if isinstance(node, ast.Name) and node.id in set_locals:
        return True
    return False


def _numeric_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and \
            isinstance(node.value, (int, float)) and \
            not isinstance(node.value, bool):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _numeric_literal(node.operand)
    return False


def _rng_site(call: ast.Call, aliases: dict[str, str]) -> Optional[RngFact]:
    """The randomness source a call reads, if any (see :class:`RngFact`
    for the kinds; ``loop_stream`` is decided by the caller)."""
    target = _resolve(call.func, aliases)
    if target is None:
        return None
    module, _, fn = target.rpartition(".")
    kind = ""
    if target in ENTROPY_TARGETS:
        kind = "entropy"
    elif module == "random" and fn in STDLIB_RANDOM_FNS:
        kind = "global"
    elif module == "numpy.random" and fn in NUMPY_LEGACY_RANDOM_FNS:
        kind = "global"
    elif target == "numpy.random.default_rng":
        if not call.args and not call.keywords:
            kind = "seedless"
        elif call.args and _numeric_literal(call.args[0]):
            kind = "literal_seed"
    elif target == "numpy.random.Generator":
        seeded = any(
            isinstance(arg, ast.Call) and (arg.args or arg.keywords)
            for arg in call.args)
        if not seeded:
            kind = "seedless"
    if not kind:
        return None
    return RngFact(call.lineno, call.col_offset, kind, target)


def _outside_functions(tree: ast.Module) -> Iterator[ast.AST]:
    """Every node that no function body owns: module and class bodies,
    and the decorators, defaults and annotations of each ``def``."""
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list)
            stack.append(node.args)
            if node.returns is not None:
                stack.append(node.returns)
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# Per-function extraction
# ----------------------------------------------------------------------

class _FunctionExtractor:
    """Extracts the facts of one function body.  The bodies of nested
    ``def``s are skipped here (they get their own
    :class:`FunctionFacts`), but their headers (decorators, defaults,
    annotations) and nested class statements run with this function,
    so they are scanned with it.  Nested ``def``s are visible by name
    for callback resolution."""

    def __init__(self, node: ast.AST, facts: FunctionFacts,
                 aliases: dict[str, str], module: str,
                 module_globals: set[str],
                 local_defs: dict[str, str],
                 method_names: set[str]) -> None:
        self.node = node
        self.facts = facts
        self.aliases = aliases
        self.module = module
        self.module_globals = module_globals
        #: visible definition name -> qualified target (module-level
        #: functions/classes plus this scope's nested defs)
        self.local_defs = local_defs
        self.method_names = method_names
        self.declared_global: set[str] = set()
        self.assigned_locals: set[str] = set()
        self.handle_locals: dict[str, ScheduleFact] = {}
        self.set_locals: set[str] = set()
        #: Loop-body nesting depth (a loop's else clause runs once, so
        #: it does not count).
        self.loop_depth = 0
        #: Call node ids already recorded as loop_stream sites (a call
        #: inside a comprehension inside a loop is visited twice).
        self._stream_flagged: set[int] = set()

    def walk(self) -> None:
        args = getattr(self.node, "args", None)
        if args is not None:
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs)]
            if args.vararg is not None:
                params.append(args.vararg.arg)
            if args.kwarg is not None:
                params.append(args.kwarg.arg)
            if params and params[0] in {"self", "cls"}:
                params = params[1:]
            self.facts.params = params
        for stmt in self.node.body:  # type: ignore[attr-defined]
            self._stmt(stmt)

    # -- traversal ----------------------------------------------------

    def _own_nodes(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk an expression tree without descending into nested
        definitions."""
        stack = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
                continue
            yield current
            stack.extend(ast.iter_child_nodes(current))

    def _scan(self, roots: list, discarded_call: Optional[ast.Call]) -> None:
        """Generic expression scan: calls, references, RNG sites,
        reductions."""
        for root in roots:
            if root is None:
                continue
            for sub in self._own_nodes(root):
                if isinstance(sub, ast.Call):
                    self._call(sub, discarded=(sub is discarded_call))
                elif isinstance(sub, ast.Name) and \
                        isinstance(sub.ctx, ast.Load) and \
                        sub.id in self.local_defs:
                    self.facts.calls.append(CallFact(
                        line=sub.lineno, col=sub.col_offset,
                        target=self.local_defs[sub.id], form="ref"))
                elif isinstance(sub, ast.Attribute) and \
                        isinstance(sub.ctx, ast.Load) and \
                        isinstance(sub.value, ast.Name) and \
                        sub.value.id == "self" and \
                        sub.attr in self.method_names:
                    self.facts.calls.append(CallFact(
                        line=sub.lineno, col=sub.col_offset,
                        target=sub.attr, form="ref_self"))
                elif isinstance(sub, (ast.GeneratorExp, ast.ListComp,
                                      ast.SetComp, ast.DictComp)):
                    self._comp_streams(sub)
                self._reduction(sub)

    def _stmt(self, stmt: ast.AST) -> None:
        # nested bodies are extracted separately by the module walker,
        # but a def's header and a class statement run right here
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._scan([*stmt.decorator_list, stmt.args, stmt.returns], None)
            return
        if isinstance(stmt, ast.ClassDef):
            self._scan([*stmt.decorator_list, *stmt.bases, *stmt.keywords],
                       None)
            for child in stmt.body:
                self._stmt(child)
            return
        if isinstance(stmt, ast.Global):
            self.declared_global.update(stmt.names)
            return

        discarded_call: Optional[ast.Call] = None
        if isinstance(stmt, ast.Expr):
            self._expr_stmt(stmt)
            if isinstance(stmt.value, ast.Call):
                discarded_call = stmt.value
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._assign(stmt)
        elif isinstance(stmt, ast.Return):
            self._return(stmt)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    self._maybe_global_mutation(target.value, stmt)

        # expression roots of this statement (compound statements hand
        # their sub-statements back to _stmt, so only headers are
        # scanned here)
        if isinstance(stmt, (ast.If, ast.While)):
            self._scan([stmt.test], None)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan([stmt.iter], None)
            self._reduction(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._scan([item.context_expr for item in stmt.items], None)
        elif isinstance(stmt, (ast.Try, *(
                (ast.TryStar,) if hasattr(ast, "TryStar") else ()))):
            pass
        else:
            self._scan([stmt], discarded_call)

        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            # only the body repeats per element; the else clause runs
            # once after the loop drains
            self.loop_depth += 1
            for child in stmt.body:
                self._stmt(child)
            self.loop_depth -= 1
            for child in stmt.orelse:
                self._stmt(child)
            return
        for field in ("body", "orelse", "finalbody"):
            for child in getattr(stmt, field, ()):
                self._stmt(child)
        for handler in getattr(stmt, "handlers", ()):
            for child in handler.body:
                self._stmt(child)

    # -- statement forms ---------------------------------------------

    def _expr_stmt(self, stmt: ast.Expr) -> None:
        value = stmt.value
        if not isinstance(value, ast.Call):
            return
        schedule = self._schedule_call(value)
        if schedule is not None:
            schedule.fate = "discarded"
            self.facts.schedules.append(schedule)
        else:
            self._container_mutation(value)

    def _assign(self, stmt: ast.AST) -> None:
        value = getattr(stmt, "value", None)
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        if value is None:
            return
        if isinstance(value, ast.Call):
            schedule = self._schedule_call(value)
            if schedule is not None:
                target = targets[0]
                if isinstance(target, ast.Name):
                    schedule.fate = "local"
                    self.handle_locals[target.id] = schedule
                elif isinstance(target, ast.Attribute) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "self":
                    schedule.fate = "self_attr"
                elif isinstance(target, ast.Subscript):
                    schedule.fate = "container"
                else:
                    schedule.fate = "local"
                self.facts.schedules.append(schedule)
        for target in targets:
            if isinstance(target, ast.Name):
                if _is_set_expr(value, self.set_locals):
                    self.set_locals.add(target.id)
                else:
                    self.set_locals.discard(target.id)
                if target.id in self.declared_global:
                    kind = ("reset" if self._is_reset_value(value)
                            else "rebind")
                    self._record_write(stmt, kind,
                                       f"{self.module}.{target.id}")
                else:
                    self.assigned_locals.add(target.id)
            elif isinstance(target, ast.Subscript):
                self._maybe_global_mutation(target.value, stmt)
        if isinstance(stmt, ast.AugAssign) and \
                isinstance(stmt.target, ast.Name) and \
                stmt.target.id in self.declared_global:
            self._record_write(stmt, "rebind",
                               f"{self.module}.{stmt.target.id}")
        # param escape: self.x = param / container[k] = param
        if isinstance(value, ast.Name) and value.id in self.facts.params:
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)) and \
                        value.id not in self.facts.param_fates.stored:
                    self.facts.param_fates.stored.append(value.id)

    def _return(self, stmt: ast.Return) -> None:
        value = stmt.value
        if value is None:
            return
        if isinstance(value, ast.Call):
            schedule = self._schedule_call(value)
            if schedule is not None:
                schedule.fate = "returned"
                self.facts.schedules.append(schedule)
                self.facts.returns_handle = True
        elif isinstance(value, ast.Name):
            if value.id in self.handle_locals:
                self.handle_locals[value.id].fate = "returned"
                self.facts.returns_handle = True
            if value.id in self.facts.params and \
                    value.id not in self.facts.param_fates.returned:
                self.facts.param_fates.returned.append(value.id)

    # -- module-global writes ----------------------------------------

    def _is_reset_value(self, value: ast.AST) -> bool:
        if isinstance(value, ast.Constant) and value.value is None:
            return True
        if isinstance(value, ast.Dict) and not value.keys:
            return True
        if isinstance(value, (ast.List, ast.Set)) and not value.elts:
            return True
        if isinstance(value, ast.Call) and not value.args and \
                not value.keywords:
            target = _resolve(value.func, self.aliases)
            if target in MUTABLE_FACTORIES:
                return True
        return False

    def _record_write(self, node: ast.AST, kind: str, target: str) -> None:
        self.facts.writes.append(GlobalWriteFact(
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0), kind=kind, target=target))

    def _global_container_id(self, base: ast.AST) -> Optional[str]:
        if isinstance(base, ast.Name):
            if base.id in self.declared_global:
                return f"{self.module}.{base.id}"
            if base.id in self.module_globals and \
                    base.id not in self.assigned_locals and \
                    base.id not in self.facts.params:
                return f"{self.module}.{base.id}"
            return None
        if isinstance(base, ast.Attribute):
            name = dotted_name(base)
            if name is None:
                return None
            head = name.split(".", 1)[0]
            if head in self.aliases:  # rooted at an import, not a local
                return _resolve(base, self.aliases)
        return None

    def _maybe_global_mutation(self, base: ast.AST, stmt: ast.AST) -> None:
        target = self._global_container_id(base)
        if target is not None:
            self._record_write(stmt, "mutate", target)

    def _container_mutation(self, call: ast.Call) -> None:
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in MUTATING_METHODS):
            return
        target = self._global_container_id(func.value)
        if target is not None:
            kind = "reset" if func.attr == "clear" else "mutate"
            self._record_write(call, kind, target)

    # -- calls, rng, schedule handles --------------------------------

    def _schedule_call(self, call: ast.Call) -> Optional[ScheduleFact]:
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in SCHEDULE_METHODS):
            return None
        callback = ""
        form = ""
        for arg in call.args:
            if isinstance(arg, ast.Attribute) and \
                    isinstance(arg.value, ast.Name) and \
                    arg.value.id == "self":
                # ``schedule(self.interval_ns, self._tick)``: the delay
                # is a self attribute too, so a method of the class
                # wins over the first ``self.X``
                if arg.attr in self.method_names:
                    callback, form = arg.attr, "self"
                    break
                if not callback:
                    callback, form = arg.attr, "self"
                continue
            if isinstance(arg, ast.Name):
                if arg.id == self.facts.name:
                    callback, form = self.facts.qualname, "local"
                    break
                if arg.id in self.local_defs:
                    callback, form = self.local_defs[arg.id], "local"
                    break
            if isinstance(arg, ast.Lambda):
                callback, form = "<lambda>", "lambda"
                break
        self_chain = (
            (form == "local" and callback == self.facts.qualname)
            or (form == "self" and callback == self.facts.name))
        return ScheduleFact(
            line=call.lineno, col=call.col_offset, method=func.attr,
            fate="discarded", callback=callback, callback_form=form,
            self_chain=self_chain)

    def _call(self, call: ast.Call, discarded: bool) -> None:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "cancel":
            self.facts.cancels = True
            for arg in call.args:
                if isinstance(arg, ast.Name):
                    if arg.id in self.handle_locals:
                        self.handle_locals[arg.id].cancelled_locally = True
                    if arg.id in self.facts.params and \
                            arg.id not in self.facts.param_fates.cancelled:
                        self.facts.param_fates.cancelled.append(arg.id)
        record = _rng_site(call, self.aliases)
        if record is not None:
            self.facts.rng.append(record)
        if self.loop_depth > 0:
            self._loop_stream(call)
        fact = self._call_fact(call, discarded)
        if fact is not None:
            self.facts.calls.append(fact)
        callee = fact.target if fact is not None and \
            fact.form == "direct" else ""
        for index, arg in enumerate(call.args):
            if not isinstance(arg, ast.Name):
                continue
            if arg.id in self.handle_locals:
                schedule = self.handle_locals[arg.id]
                if schedule.fate == "local" and callee and \
                        not (isinstance(func, ast.Attribute)
                             and func.attr == "cancel"):
                    schedule.fate = "arg_passed"
                    schedule.passed_to = callee
                    schedule.passed_index = index
            if arg.id in self.facts.params and \
                    isinstance(func, ast.Attribute) and \
                    func.attr in MUTATING_METHODS and \
                    arg.id not in self.facts.param_fates.stored:
                self.facts.param_fates.stored.append(arg.id)

    def _call_fact(self, call: ast.Call,
                   discarded: bool) -> Optional[CallFact]:
        func = call.func
        if isinstance(func, ast.Name):
            target = self.local_defs.get(func.id) or \
                self.aliases.get(func.id, func.id)
            return CallFact(line=call.lineno, col=call.col_offset,
                            target=target, form="direct",
                            discarded=discarded)
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                return CallFact(line=call.lineno, col=call.col_offset,
                                target=func.attr, form="self",
                                discarded=discarded)
            if dotted_name(func) is not None:
                resolved = _resolve(func, self.aliases)
                if resolved is not None:
                    head = dotted_name(func.value)
                    root = head.split(".", 1)[0] if head else ""
                    if root in self.aliases:
                        return CallFact(line=call.lineno,
                                        col=call.col_offset,
                                        target=resolved, form="direct",
                                        discarded=discarded)
            return CallFact(line=call.lineno, col=call.col_offset,
                            target=func.attr, form="method",
                            discarded=discarded)
        return None

    def _loop_stream(self, call: ast.Call) -> None:
        """Record a named-stream construction that runs once per
        element of a sweep (RAG106: stage code must pre-draw a buffer
        outside the loop and index into it)."""
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "stream"):
            return
        if id(call) in self._stream_flagged:
            return
        self._stream_flagged.add(id(call))
        self.facts.rng.append(RngFact(
            call.lineno, call.col_offset, "loop_stream",
            dotted_name(func) or "stream"))

    def _comp_streams(self, comp: ast.AST) -> None:
        """A comprehension is a per-element loop too: everything except
        the first generator's iterable (evaluated once) re-runs per
        element."""
        generators = getattr(comp, "generators", ())
        once = generators[0].iter if generators else None
        stack: list[ast.AST] = [comp]
        while stack:
            node = stack.pop()
            if node is once or isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
                continue
            if isinstance(node, ast.Call):
                self._loop_stream(node)
            stack.extend(ast.iter_child_nodes(node))

    # -- reductions ---------------------------------------------------

    def _reduction(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            target = _resolve(node.func, self.aliases)
            if target in {"sum", "math.fsum"} and node.args:
                arg = node.args[0]
                if _is_set_expr(arg, self.set_locals):
                    self.facts.reductions.append(ReductionFact(
                        node.lineno, node.col_offset, "sum_over_set",
                        target))
                elif isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                    for gen in arg.generators:
                        if _is_set_expr(gen.iter, self.set_locals):
                            self.facts.reductions.append(ReductionFact(
                                node.lineno, node.col_offset,
                                "sum_over_set", target))
                            break
        elif isinstance(node, (ast.For, ast.AsyncFor)) and \
                _is_set_expr(node.iter, self.set_locals):
            for stmt in node.body:
                for sub in self._own_nodes(stmt):
                    if isinstance(sub, ast.AugAssign) and \
                            isinstance(sub.op, ast.Add):
                        name = dotted_name(sub.target) or "<accumulator>"
                        self.facts.reductions.append(ReductionFact(
                            node.lineno, node.col_offset,
                            "unordered_accumulation", name))
                        return


# ----------------------------------------------------------------------
# Module-level extraction
# ----------------------------------------------------------------------

def _module_globals(tree: ast.Module,
                    aliases: dict[str, str]) -> dict[str, dict]:
    table: dict[str, dict] = {}
    for stmt in tree.body:
        targets: list[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        mutable = False
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp)):
            mutable = True
        elif isinstance(value, ast.Call):
            resolved = _resolve(value.func, aliases)
            if resolved in MUTABLE_FACTORIES:
                mutable = True
        for target in targets:
            if isinstance(target, ast.Name) and target.id != "__all__":
                table[target.id] = {"line": stmt.lineno, "mutable": mutable}
    return table


def _registries(tree: ast.Module, aliases: dict[str, str], module: str,
                local_defs: dict[str, str]) -> dict[str, list[str]]:
    """Module-level ``NAME = { ...: func }`` dicts mapping to resolved
    function targets (the experiment-registry dispatch pattern)."""
    found: dict[str, list[str]] = {}
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        value = getattr(stmt, "value", None)
        if not isinstance(value, ast.Dict):
            continue
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            continue
        entries: list[str] = []
        for item in value.values:
            if isinstance(item, ast.Name):
                if item.id in local_defs:
                    entries.append(local_defs[item.id])
                elif item.id in aliases:
                    entries.append(aliases[item.id])
            elif isinstance(item, ast.Attribute):
                resolved = _resolve(item, aliases)
                if resolved is not None:
                    entries.append(resolved)
        if entries:
            for name in names:
                found[name] = entries
    return found


def extract_facts(source: str, *, path: str = "<string>") -> FileFacts:
    """Extract :class:`FileFacts` from one source string."""
    module_path, module = module_name_for(path)
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return FileFacts(path=path, module_path=module_path, module=module,
                         parse_error=f"line {error.lineno}: {error.msg}")
    lines = tuple(source.splitlines())
    aliases = _build_aliases(
        tree, module,
        is_package=pathlib.Path(path).name == "__init__.py")
    facts = FileFacts(path=path, module_path=module_path, module=module,
                      aliases=aliases)
    facts.globals = _module_globals(tree, aliases)
    facts.suppressions = {
        str(line): sorted(ids)
        for line, ids in parse_suppressions(lines).items()
    }

    top_defs: dict[str, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            top_defs[stmt.name] = f"{module}.{stmt.name}"
    facts.registries = _registries(tree, aliases, module, top_defs)
    module_global_names = set(facts.globals)

    def extract_function(node, qualname: str, cls: str,
                         local_defs: dict[str, str],
                         method_names: set[str]) -> None:
        nested = {
            child.name: f"{qualname}.{child.name}"
            for child in ast.walk(node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not node
        }
        scope_defs = {**local_defs, **nested}
        fn = FunctionFacts(qualname=qualname, name=node.name, cls=cls,
                           line=node.lineno)
        _FunctionExtractor(node, fn, aliases, module, module_global_names,
                           scope_defs, method_names).walk()
        facts.functions.append(fn)
        for child in node.body:
            descend(child, qualname, cls, scope_defs, method_names)

    def descend(node, prefix: str, cls: str,
                local_defs: dict[str, str],
                method_names: set[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            extract_function(node, f"{prefix}.{node.name}", cls,
                             local_defs, method_names)
        elif isinstance(node, ast.ClassDef):
            methods = {
                item.name for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            cancels = False
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    extract_function(
                        item, f"{prefix}.{node.name}.{item.name}",
                        node.name, local_defs, methods)
                    for sub in ast.walk(item):
                        if isinstance(sub, ast.Call) and \
                                isinstance(sub.func, ast.Attribute) and \
                                sub.func.attr == "cancel":
                            cancels = True
                else:
                    descend(item, f"{prefix}.{node.name}", node.name,
                            local_defs, methods)
            facts.classes.append(ClassFacts(
                name=node.name, line=node.lineno,
                methods=sorted(methods), cancels=cancels))
        else:
            for child in ast.iter_child_nodes(node):
                descend(child, prefix, cls, local_defs, method_names)

    for stmt in tree.body:
        descend(stmt, module, "", top_defs, set())
    sites = (_rng_site(node, aliases) for node in _outside_functions(tree)
             if isinstance(node, ast.Call))
    facts.rng = sorted((site for site in sites if site is not None),
                       key=lambda site: (site.line, site.col))
    return facts


__all__ = [
    "ENTROPY_TARGETS",
    "CallFact",
    "ClassFacts",
    "FileFacts",
    "FunctionFacts",
    "GlobalWriteFact",
    "MUTABLE_FACTORIES",
    "MUTATING_METHODS",
    "NUMPY_LEGACY_RANDOM_FNS",
    "ParamFates",
    "ReductionFact",
    "RngFact",
    "SCHEDULE_METHODS",
    "STDLIB_RANDOM_FNS",
    "ScheduleFact",
    "extract_facts",
    "module_name_for",
]
