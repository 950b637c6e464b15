"""The RAG100–RAG106 whole-program dataflow rules.

Each rule walks the linked :class:`ProjectIndex` rather than a single
AST, so a finding can say *how* a site is reachable ("via run_task ->
table1.run -> PythiaChannel.cache_telemetry"), and a sanctioned reset
two modules away can clear a shard-safety flag here.

Rule catalogue (see docs/LINT.md for the narrative version):

RAG100  process-global randomness anywhere in the package, or raw
        entropy on a reachable path
RAG101  RNG constructed outside the named-stream discipline
RAG102  module-level mutable container mutated after import time
RAG103  module-level name rebound after import time without a reset
RAG104  schedule handle escapes its creator without a cancel path
RAG105  order-sensitive float reduction on an output path
RAG106  per-element stream() draw inside a vectorized sweep
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Optional, Sequence

from repro.lint.engine import Finding
from repro.lint.flow.facts import FileFacts, FunctionFacts
from repro.lint.flow.project import ProjectIndex

#: Modules whose public surface seeds the randomness-taint reachability
#: (experiments, channels, fault injection, side channels).
_TAINT_MODULE_RE = re.compile(
    r"(^|\.)(experiments|covert|faults|side|channels)(\.|$)")

#: The named-stream module: the one file allowed to touch the global RNG.
_RNG_HOME = "repro/sim/random.py"

#: Function names that sanction a module-global reset wherever they
#: appear (teardown paths are often only called from tests/atexit).
_RESET_NAME_RE = re.compile(
    r"(reset|clear|uninstall|teardown|stop|close|restore|shutdown)", re.I)


def shard_roots(index: ProjectIndex) -> list[str]:
    """Task-execution roots: every ``run_task`` dispatcher.

    Registry entries hang off these via the synthetic registry edges,
    so the BFS reaches every registered experiment body.
    """
    return sorted(q for q in index.functions if q.endswith(".run_task"))


def taint_roots(index: ProjectIndex) -> list[str]:
    """Randomness-taint roots: run_task plus the public surface of the
    experiment/channel/fault/side-channel subsystems."""
    roots = set(shard_roots(index))
    for qualname, (fn, facts) in index.functions.items():
        if not _TAINT_MODULE_RE.search(facts.module):
            continue
        if fn.name.startswith("_") and fn.name != "__init__":
            continue
        if fn.cls and fn.cls.startswith("_"):
            continue
        roots.add(qualname)
    return sorted(roots)


def _via(index: ProjectIndex, parents: dict[str, Optional[str]],
         qualname: str) -> str:
    chain = index.chain(parents, qualname)
    if len(chain) < 2:
        return ""
    return " (reachable via " + " -> ".join(chain) + ")"


class FlowRule:
    """Base class for whole-program rules."""

    rule_id = "RAG1xx"
    title = ""
    severity = "error"

    def run(self, index: ProjectIndex) -> Iterator["RawFinding"]:
        raise NotImplementedError

    def raw(self, facts: FileFacts, fn: Optional[FunctionFacts],
            line: int, col: int, key: str, message: str,
            severity: Optional[str] = None) -> "RawFinding":
        return RawFinding(
            rule_id=self.rule_id, severity=severity or self.severity,
            facts=facts, qualname=fn.qualname if fn else "",
            line=line, col=col, key=key, message=message)


class RawFinding:
    """A rule hit before suppression/fingerprint post-processing."""

    def __init__(self, *, rule_id: str, severity: str, facts: FileFacts,
                 qualname: str, line: int, col: int, key: str,
                 message: str) -> None:
        self.rule_id = rule_id
        self.severity = severity
        self.facts = facts
        self.qualname = qualname
        self.line = line
        self.col = col
        self.key = key
        self.message = message


# ----------------------------------------------------------------------
# RAG100 / RAG101 — randomness taint
# ----------------------------------------------------------------------

def _in_package(facts: FileFacts) -> bool:
    """Is this file part of the ``repro`` package (and not the
    named-stream module that wraps the global RNG on purpose)?"""
    return facts.module_path.startswith("repro/") and \
        facts.module_path != _RNG_HOME


class GlobalRandomnessTaintRule(FlowRule):
    """Process-global RNG state (``random.*``, legacy ``np.random.*``)
    anywhere in the package, reachable or not, and raw entropy
    (``os.urandom``, ``uuid.uuid4``) anywhere reachable from
    experiments, channels, faults, or side channels.  These make
    results depend on import order and host state, not the experiment
    seed; all randomness flows through named, seed-derived streams
    (:class:`repro.sim.random.RandomStreams`) or an explicitly seeded
    ``numpy.random.Generator``.  A reachable site names its call
    chain."""

    rule_id = "RAG100"
    title = "global RNG in the package, or entropy on a reachable path"
    severity = "error"

    def run(self, index: ProjectIndex) -> Iterator[RawFinding]:
        parents = index.reachable_from(taint_roots(index))
        for facts in index.files.values():
            if not _in_package(facts):
                continue
            for site in facts.rng:
                if site.kind == "global":
                    yield self.raw(
                        facts, None, site.line, site.col,
                        key=f"global:{site.target}",
                        message=(f"{facts.module} uses process-global RNG "
                                 f"{site.target}() at import time; derive "
                                 f"randomness from a named "
                                 f"sim.random.stream(...) instead"))
        for qualname in sorted(index.functions):
            fn, facts = index.functions[qualname]
            reachable = qualname in parents
            for site in fn.rng:
                if site.kind == "global":
                    if not (reachable or _in_package(facts)):
                        continue
                    noun = "process-global RNG"
                elif site.kind == "entropy" and reachable:
                    noun = "process entropy source"
                else:
                    continue
                yield self.raw(
                    facts, fn, site.line, site.col,
                    key=f"{site.kind}:{site.target}",
                    message=(f"{fn.qualname} uses {noun} {site.target}(); "
                             f"derive randomness from a named "
                             f"sim.random.stream(...) instead"
                             + _via(index, parents, qualname)))


class UnseededGeneratorRule(FlowRule):
    """``np.random.default_rng()`` with no seed, or with a constant
    literal seed, on a reachable path.  Seedless construction is
    non-replayable; a literal-seed fallback silently decouples the
    component from the experiment seed, so two different experiment
    seeds share identical "random" behaviour."""

    rule_id = "RAG101"
    title = "RNG constructed outside the named-stream discipline"
    severity = "error"

    def run(self, index: ProjectIndex) -> Iterator[RawFinding]:
        parents = index.reachable_from(taint_roots(index))
        for qualname in sorted(parents):
            fn, facts = index.functions[qualname]
            for site in fn.rng:
                if site.kind == "seedless":
                    yield self.raw(
                        facts, fn, site.line, site.col,
                        key=f"seedless:{site.target}",
                        message=(f"{fn.qualname} constructs a seedless "
                                 f"{site.target}(); derive from "
                                 f"sim.random.stream(...) so replays are "
                                 f"bit-identical"
                                 + _via(index, parents, qualname)))
                elif site.kind == "literal_seed":
                    yield self.raw(
                        facts, fn, site.line, site.col,
                        key=f"literal_seed:{site.target}",
                        message=(f"{fn.qualname} falls back to a "
                                 f"constant-seed {site.target}(<literal>), "
                                 f"decoupled from the experiment seed; "
                                 f"thread the seed or a named stream "
                                 f"through instead"
                                 + _via(index, parents, qualname)),
                        severity="warning")


# ----------------------------------------------------------------------
# RAG102 / RAG103 — shard safety
# ----------------------------------------------------------------------

def _sanctioned_resets(index: ProjectIndex,
                       parents: dict[str, Optional[str]]) -> set[str]:
    """Global targets that have a reset site on a task path or in a
    reset-like-named function anywhere in the project."""
    sanctioned: set[str] = set()
    for qualname, (fn, _facts) in index.functions.items():
        for write in fn.writes:
            if write.kind != "reset":
                continue
            if qualname in parents or _RESET_NAME_RE.search(fn.name):
                sanctioned.add(write.target)
    return sanctioned


class SharedMutableWriteRule(FlowRule):
    """A module-level mutable container (cache, registry, table) is
    mutated on a path reachable from ``run_task`` and never reset per
    task.  Under ``--jobs`` the mutation leaks across tasks in one
    worker but not across workers, so serial-vs-parallel byte-identity
    becomes a coincidence."""

    rule_id = "RAG102"
    title = "shared module-level mutable written on a task path"
    severity = "error"

    def run(self, index: ProjectIndex) -> Iterator[RawFinding]:
        parents = index.reachable_from(shard_roots(index))
        if not parents:
            return
        sanctioned = _sanctioned_resets(index, parents)
        for qualname in sorted(parents):
            fn, facts = index.functions[qualname]
            for write in fn.writes:
                if write.kind != "mutate":
                    continue
                if write.target in sanctioned:
                    continue
                if not index.global_is_mutable(write.target):
                    continue
                yield self.raw(
                    facts, fn, write.line, write.col,
                    key=f"mutate:{write.target}",
                    message=(f"{fn.qualname} mutates module-level "
                             f"{write.target} on a task path with no "
                             f"per-task reset; this breaks --jobs "
                             f"byte-identity"
                             + _via(index, parents, qualname)))


class SharedRebindRule(FlowRule):
    """A module-level name is rebound (``global X; X = ...``) on a task
    path without a matching reset.  Unlike RAG102 this also catches
    scalars and handles; install/uninstall pairs whose uninstall is on
    the task path are sanctioned."""

    rule_id = "RAG103"
    title = "module-level name rebound on a task path without reset"
    severity = "warning"

    def run(self, index: ProjectIndex) -> Iterator[RawFinding]:
        parents = index.reachable_from(shard_roots(index))
        if not parents:
            return
        sanctioned = _sanctioned_resets(index, parents)
        for qualname in sorted(parents):
            fn, facts = index.functions[qualname]
            for write in fn.writes:
                if write.kind != "rebind":
                    continue
                if write.target in sanctioned:
                    continue
                yield self.raw(
                    facts, fn, write.line, write.col,
                    key=f"rebind:{write.target}",
                    message=(f"{fn.qualname} rebinds module-level "
                             f"{write.target} on a task path and nothing "
                             f"reachable resets it; state leaks into the "
                             f"next task on the same worker"
                             + _via(index, parents, qualname)))


# ----------------------------------------------------------------------
# RAG104 — interprocedural handle escape
# ----------------------------------------------------------------------

class HandleEscapeRule(FlowRule):
    """Schedule handles that escape their creator without a cancel
    path: self-rescheduling chains whose handle is discarded (in a
    class with ``stop()``, also the call that starts the chain), chains
    kept on ``self`` by a class whose ``stop()`` can cancel nothing
    (no ``cancel()`` anywhere in the class), handles returned by a
    helper and dropped at the call site, handles passed to helpers that
    neither cancel nor keep them, and handles buried in containers by
    functions with no cancel path.  A ``stop()`` that merely clears a
    flag leaves the pending event alive: a later ``start()`` launches a
    *second* chain and doubles the callback rate (the
    BandwidthMonitor/CounterSampler bug class)."""

    rule_id = "RAG104"
    title = "schedule handle escapes without a cancel path"
    severity = "warning"

    def run(self, index: ProjectIndex) -> Iterator[RawFinding]:
        for qualname in sorted(index.functions):
            fn, facts = index.functions[qualname]
            yield from self._schedules(index, fn, facts)
            yield from self._dropped_at_caller(index, fn, facts)

    @staticmethod
    def _has_stop(index: ProjectIndex, fn: FunctionFacts,
                  facts: FileFacts) -> bool:
        entry = index.classes.get(f"{facts.module}.{fn.cls}")
        return bool(entry and "stop" in entry[0].methods)

    @staticmethod
    def _starts_chain(index: ProjectIndex, fn: FunctionFacts,
                      facts: FileFacts, site) -> bool:
        """Does ``site`` schedule a method of the class that
        reschedules itself (``start()`` arming ``self._tick``)?"""
        if site.callback_form != "self":
            return False
        entry = index.functions.get(
            f"{facts.module}.{fn.cls}.{site.callback}")
        return bool(entry and any(s.self_chain for s in entry[0].schedules))

    def _schedules(self, index: ProjectIndex, fn: FunctionFacts,
                   facts: FileFacts) -> Iterator[RawFinding]:
        has_stop = self._has_stop(index, fn, facts)
        for site in fn.schedules:
            chain = site.self_chain or (
                has_stop and self._starts_chain(index, fn, facts, site))
            if chain and site.fate in ("discarded", "local") \
                    and not site.cancelled_locally:
                yield self.raw(
                    facts, fn, site.line, site.col,
                    key=f"chain:{site.callback or fn.name}",
                    message=(f"{fn.qualname} starts a self-rescheduling "
                             f"{site.method}() chain and drops the "
                             f"handle; no cancel path can ever stop the "
                             f"chain once the enclosing run ends"))
            elif chain and has_stop and site.fate == "self_attr" \
                    and not index.class_cancels(facts.module, fn.cls):
                yield self.raw(
                    facts, fn, site.line, site.col,
                    key=f"kept:{site.callback}",
                    message=(f"{fn.qualname} keeps the handle of a "
                             f"self-rescheduling {site.method}() chain, "
                             f"but {fn.cls}.stop() never cancel()s it; a "
                             f"stop->start cycle doubles the callback "
                             f"rate"))
            elif site.fate == "container":
                class_ok = fn.cls and index.class_cancels(facts.module,
                                                          fn.cls)
                # a closure that parks its handle in the enclosing
                # function's cell is fine when the encloser cancels
                enclosing = index.functions.get(
                    fn.qualname.rsplit(".", 1)[0])
                enclosing_ok = enclosing is not None and \
                    enclosing[0].cancels
                if not fn.cancels and not class_ok and not enclosing_ok:
                    yield self.raw(
                        facts, fn, site.line, site.col,
                        key=f"container:{site.callback or site.method}",
                        message=(f"{fn.qualname} stores a {site.method}() "
                                 f"handle in a container but has no "
                                 f"cancel path for it"))
            elif site.fate == "arg_passed":
                yield from self._passed(index, fn, facts, site)

    def _passed(self, index: ProjectIndex, fn: FunctionFacts,
                facts: FileFacts, site) -> Iterator[RawFinding]:
        targets = index.resolve(site.passed_to)
        if len(targets) != 1:
            return
        callee, _callee_facts = index.functions[next(iter(targets))]
        if callee.cls and callee.name != "__init__":
            return  # bound-method index mapping is unreliable
        if site.passed_index >= len(callee.params):
            return
        param = callee.params[site.passed_index]
        fates = callee.param_fates
        if param in fates.cancelled or param in fates.stored \
                or param in fates.returned:
            return
        yield self.raw(
            facts, fn, site.line, site.col,
            key=f"passed:{callee.qualname}:{param}",
            message=(f"{fn.qualname} hands its {site.method}() handle to "
                     f"{callee.qualname}(), which neither cancels, "
                     f"stores, nor returns it — the pending event "
                     f"outlives every reference to it"))

    def _dropped_at_caller(self, index: ProjectIndex, fn: FunctionFacts,
                           facts: FileFacts) -> Iterator[RawFinding]:
        for call in fn.calls:
            if call.form != "direct" or not call.discarded:
                continue
            targets = index.resolve(call.target)
            if len(targets) != 1:
                continue
            callee, _callee_facts = index.functions[next(iter(targets))]
            if not callee.returns_handle:
                continue
            yield self.raw(
                facts, fn, call.line, call.col,
                key=f"dropped:{callee.qualname}",
                message=(f"{fn.qualname} drops the schedule handle "
                         f"returned by {callee.qualname}(); keep it so a "
                         f"stop path can cancel the pending event"))


# ----------------------------------------------------------------------
# RAG105 — float-reduction order
# ----------------------------------------------------------------------

class UnorderedReductionRule(FlowRule):
    """``sum()`` / ``math.fsum()`` over a set, or ``+=`` accumulation
    while iterating one, on a path feeding experiment outputs.  Set
    iteration order is hash-dependent, and float addition is not
    associative, so the produced capacity/BER numbers can differ
    between runs and hosts."""

    rule_id = "RAG105"
    title = "order-sensitive float reduction on an output path"
    severity = "warning"

    def run(self, index: ProjectIndex) -> Iterator[RawFinding]:
        parents = index.reachable_from(taint_roots(index))
        for qualname in sorted(parents):
            fn, facts = index.functions[qualname]
            for site in fn.reductions:
                what = ("sums over an unordered set"
                        if site.kind == "sum_over_set"
                        else f"accumulates {site.detail} while iterating "
                             f"an unordered set")
                yield self.raw(
                    facts, fn, site.line, site.col,
                    key=f"{site.kind}:{site.detail}",
                    message=(f"{fn.qualname} {what}; float addition is "
                             f"order-sensitive, so sort the operands "
                             f"before reducing"
                             + _via(index, parents, qualname)))


# ----------------------------------------------------------------------
# RAG106 — vectorized-sweep randomness discipline
# ----------------------------------------------------------------------

class LoopStreamDrawRule(FlowRule):
    """A named ``stream()`` constructed once per element inside a loop
    or comprehension.  Descriptor-array stage code (the batched fast
    path, the TPU admission sweep) must pre-draw its randomness into a
    buffer from ONE named stream before the sweep: a per-element
    ``stream()`` re-derives the SHA-256 key per descriptor (quadratic
    in cohort size), and, worse, makes the draw sequence depend on the
    sweep's iteration shape — splitting one cohort into two then
    consumes different streams, so scalar and batched replays diverge.
    """

    rule_id = "RAG106"
    title = "per-element stream() draw inside a vectorized sweep"
    severity = "error"

    def run(self, index: ProjectIndex) -> Iterator[RawFinding]:
        for qualname in sorted(index.functions):
            fn, facts = index.functions[qualname]
            for site in fn.rng:
                if site.kind != "loop_stream":
                    continue
                yield self.raw(
                    facts, fn, site.line, site.col,
                    key=f"loop_stream:{site.target}",
                    message=(f"{fn.qualname} draws a fresh "
                             f"{site.target}() per element of a sweep; "
                             f"pre-draw one named-stream buffer before "
                             f"the loop and index into it so scalar and "
                             f"batched replays consume identical "
                             f"sequences"))


FLOW_RULES: tuple[FlowRule, ...] = (
    GlobalRandomnessTaintRule(),
    UnseededGeneratorRule(),
    SharedMutableWriteRule(),
    SharedRebindRule(),
    HandleEscapeRule(),
    UnorderedReductionRule(),
    LoopStreamDrawRule(),
)


def flow_rule_index() -> dict[str, FlowRule]:
    return {rule.rule_id: rule for rule in FLOW_RULES}


def run_analyses(index: ProjectIndex,
                 rules: Optional[Sequence[FlowRule]] = None
                 ) -> Iterator["FlowFinding"]:
    """Run the rules and post-process raw hits into
    :class:`FlowFinding`s: inline-suppression marking, ordinal
    disambiguation of duplicate fingerprint keys, parse-error
    surfacing."""
    from repro.lint.flow import FlowFinding  # circular at import time

    for facts in index.files.values():
        if facts.parse_error:
            yield FlowFinding(
                finding=Finding(path=facts.path, line=1, col=0,
                                rule_id="RAG000", severity="error",
                                message=f"syntax error: "
                                        f"{facts.parse_error}"),
                fingerprint=("RAG000", facts.module_path, "",
                             "parse-error"))

    seen_keys: dict[tuple[str, str, str, str], int] = {}
    for rule in (rules if rules is not None else FLOW_RULES):
        for raw in rule.run(index):
            base = (raw.rule_id, raw.facts.module_path, raw.qualname,
                    raw.key)
            ordinal = seen_keys.get(base, 0)
            seen_keys[base] = ordinal + 1
            key = raw.key if ordinal == 0 else f"{raw.key}#{ordinal}"
            disabled = raw.facts.suppressions.get(str(raw.line), ())
            suppressed = raw.rule_id in disabled
            yield FlowFinding(
                finding=Finding(path=raw.facts.path, line=raw.line,
                                col=raw.col, rule_id=raw.rule_id,
                                severity=raw.severity,
                                message=raw.message,
                                suppressed=suppressed),
                fingerprint=(raw.rule_id, raw.facts.module_path,
                             raw.qualname, key))


__all__ = [
    "FLOW_RULES",
    "FlowRule",
    "GlobalRandomnessTaintRule",
    "HandleEscapeRule",
    "LoopStreamDrawRule",
    "RawFinding",
    "SharedMutableWriteRule",
    "SharedRebindRule",
    "UnorderedReductionRule",
    "UnseededGeneratorRule",
    "flow_rule_index",
    "run_analyses",
    "shard_roots",
    "taint_roots",
]
