"""Project-wide symbol table, call graph, and reachability.

:class:`ProjectIndex` links the per-file :class:`FileFacts` into one
whole-program view.  Resolution is deliberately over-approximate where
Python's dynamism demands it (attribute calls on unknown objects fall
back to a method-name index), and exact where the facts allow it
(dotted imports, re-export aliases, ``self.method``, registry dicts).
Over-approximation errs toward *more* reachability: a determinism rule
that misses a path is worse than one that asks for an inline
suppression.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from repro.lint.flow.facts import ClassFacts, FileFacts, FunctionFacts

#: Maximum re-export alias chain length before resolution gives up.
_MAX_ALIAS_HOPS = 10


class ProjectIndex:
    """Symbol table + call graph over a set of extracted files."""

    def __init__(self) -> None:
        self.files: dict[str, FileFacts] = {}
        #: dotted module -> FileFacts
        self.modules: dict[str, FileFacts] = {}
        #: function qualname -> (FunctionFacts, owning FileFacts)
        self.functions: dict[str, tuple[FunctionFacts, FileFacts]] = {}
        #: ``module.ClassName`` -> (ClassFacts, owning FileFacts)
        self.classes: dict[str, tuple[ClassFacts, FileFacts]] = {}
        #: bare method name -> set of method qualnames (over-approx pool)
        self.method_index: dict[str, set[str]] = {}
        #: caller qualname -> callee qualnames
        self.edges: dict[str, set[str]] = {}
        self._linked = False

    # -- construction -------------------------------------------------

    def add(self, facts: FileFacts) -> None:
        self.files[facts.path] = facts
        self.modules[facts.module] = facts
        for fn in facts.functions:
            self.functions[fn.qualname] = (fn, facts)
            if fn.cls:
                self.method_index.setdefault(fn.name, set()).add(fn.qualname)
        for cls in facts.classes:
            self.classes[f"{facts.module}.{cls.name}"] = (cls, facts)
        self._linked = False

    def link(self) -> None:
        """Build the call-graph edges.  Idempotent."""
        self.edges = {}
        for qualname, (fn, facts) in self.functions.items():
            callees: set[str] = set()
            for call in fn.calls:
                if call.form in ("direct", "ref"):
                    callees.update(self.resolve(call.target))
                elif call.form in ("self", "ref_self"):
                    callees.update(self._resolve_self(facts, fn, call.target))
                elif call.form == "method":
                    callees.update(self.method_index.get(call.target, ()))
            for schedule in fn.schedules:
                if schedule.callback_form == "local":
                    callees.update(self.resolve(schedule.callback))
                elif schedule.callback_form == "self":
                    callees.update(
                        self._resolve_self(facts, fn, schedule.callback))
            # the registry-dispatch pattern: functions in a module that
            # defines a registry dict may call any registered target
            # through a dynamic lookup the AST cannot resolve
            for entries in facts.registries.values():
                for entry in entries:
                    callees.update(self.resolve(entry))
            callees.discard(qualname)
            self.edges[qualname] = callees
        self._linked = True

    # -- resolution ---------------------------------------------------

    def resolve(self, dotted: str) -> set[str]:
        """Function qualnames a dotted target may refer to.

        Handles direct hits, re-export alias chains
        (``repro.obs.install`` -> ``repro.obs.runtime.install``), and
        class instantiation (-> ``__init__``).  Unresolvable targets
        (stdlib, builtins) resolve to the empty set.
        """
        return self._resolve(dotted, hops=0)

    def _resolve(self, dotted: str, hops: int) -> set[str]:
        if not dotted or hops > _MAX_ALIAS_HOPS:
            return set()
        if dotted in self.functions:
            return {dotted}
        if dotted in self.classes:
            init = f"{dotted}.__init__"
            return {init} if init in self.functions else set()
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            facts = self.modules.get(module)
            if facts is None:
                continue
            rest = parts[cut:]
            alias = facts.aliases.get(rest[0])
            if alias is not None:
                retarget = ".".join([alias, *rest[1:]])
                if retarget != dotted:
                    return self._resolve(retarget, hops + 1)
            return set()
        return set()

    def _resolve_self(self, facts: FileFacts, fn: FunctionFacts,
                      method: str) -> set[str]:
        if fn.cls:
            own = f"{facts.module}.{fn.cls}.{method}"
            if own in self.functions:
                return {own}
        return set(self.method_index.get(method, ()))

    # -- reachability -------------------------------------------------

    def reachable_from(self,
                       roots: Iterable[str]) -> dict[str, Optional[str]]:
        """BFS over the call graph.

        Returns ``{qualname: parent}`` for every reachable function
        (roots map to ``None``), so callers can reconstruct a shortest
        call chain for diagnostics.
        """
        if not self._linked:
            self.link()
        parents: dict[str, Optional[str]] = {}
        queue: deque[str] = deque()
        for root in roots:
            if root in self.functions and root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            current = queue.popleft()
            for callee in self.edges.get(current, ()):
                if callee not in parents:
                    parents[callee] = current
                    queue.append(callee)
        return parents

    @staticmethod
    def chain(parents: dict[str, Optional[str]],
              qualname: str, *, limit: int = 6) -> list[str]:
        """Root-first call chain for a reachable function."""
        path: list[str] = []
        current: Optional[str] = qualname
        while current is not None and len(path) <= limit:
            path.append(current)
            current = parents.get(current)
        path.reverse()
        return path

    # -- convenience --------------------------------------------------

    def class_cancels(self, module: str, cls: str) -> bool:
        entry = self.classes.get(f"{module}.{cls}")
        return bool(entry and entry[0].cancels)


__all__ = ["ProjectIndex"]
