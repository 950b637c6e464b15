"""The RAG100, RAG101 and RAG104–RAG106 whole-program dataflow rules.

Each rule walks the linked :class:`ProjectIndex` rather than a single
AST, so a finding can say *how* a site is reachable ("via run_task ->
table1.run -> PythiaChannel.cache_telemetry").

Rule catalogue (see docs/LINT.md for the narrative version):

RAG100  process-global randomness anywhere in the package, or raw
        entropy on a reachable path
RAG101  RNG constructed outside the named-stream discipline
RAG104  schedule handle escapes its creator without a cancel path
RAG105  order-sensitive float reduction on an output path
RAG106  per-element stream() draw inside a vectorized sweep
"""

from __future__ import annotations

import re
from typing import Iterator, Optional, Sequence

from repro.lint.engine import Finding
from repro.lint.flow.facts import FileFacts, FunctionFacts
from repro.lint.flow.project import ProjectIndex

#: Modules whose public surface seeds the randomness-taint reachability
#: (experiments, channels, fault injection, side channels).
_TAINT_MODULE_RE = re.compile(
    r"(^|\.)(experiments|covert|faults|side|channels)(\.|$)")

#: The named-stream module: the one file allowed to touch the global RNG.
_RNG_HOME = "repro/sim/random.py"


def taint_roots(index: ProjectIndex) -> list[str]:
    """Randomness-taint roots: every ``run_task`` dispatcher plus the
    public surface of the experiment/channel/fault/side-channel
    subsystems.  Registry entries hang off ``run_task`` via the
    synthetic registry edges, so the BFS reaches every registered
    experiment body."""
    roots = {q for q in index.functions if q.endswith(".run_task")}
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

    def run(self, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, facts: FileFacts, line: int, col: int,
                message: str, severity: Optional[str] = None) -> Finding:
        """A finding at ``line``, suppressed when that line carries a
        ``# ragnar-lint: disable=`` for this rule."""
        return Finding(
            path=facts.path, line=line, col=col, rule_id=self.rule_id,
            severity=severity or self.severity, message=message,
            suppressed=self.rule_id in facts.suppressions.get(str(line), ()))


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

    def run(self, index: ProjectIndex) -> Iterator[Finding]:
        parents = index.reachable_from(taint_roots(index))
        for facts in index.files.values():
            if not _in_package(facts):
                continue
            for site in facts.rng:
                if site.kind == "global":
                    yield self.finding(
                        facts, site.line, site.col,
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
                yield self.finding(
                    facts, site.line, site.col,
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

    def run(self, index: ProjectIndex) -> Iterator[Finding]:
        parents = index.reachable_from(taint_roots(index))
        for qualname in sorted(parents):
            fn, facts = index.functions[qualname]
            for site in fn.rng:
                if site.kind == "seedless":
                    yield self.finding(
                        facts, site.line, site.col,
                        message=(f"{fn.qualname} constructs a seedless "
                                 f"{site.target}(); derive from "
                                 f"sim.random.stream(...) so replays are "
                                 f"bit-identical"
                                 + _via(index, parents, qualname)))
                elif site.kind == "literal_seed":
                    yield self.finding(
                        facts, site.line, site.col,
                        message=(f"{fn.qualname} falls back to a "
                                 f"constant-seed {site.target}(<literal>), "
                                 f"decoupled from the experiment seed; "
                                 f"thread the seed or a named stream "
                                 f"through instead"
                                 + _via(index, parents, qualname)),
                        severity="warning")


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

    def run(self, index: ProjectIndex) -> Iterator[Finding]:
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
                   facts: FileFacts) -> Iterator[Finding]:
        has_stop = self._has_stop(index, fn, facts)
        for site in fn.schedules:
            chain = site.self_chain or (
                has_stop and self._starts_chain(index, fn, facts, site))
            if chain and site.fate in ("discarded", "local") \
                    and not site.cancelled_locally:
                yield self.finding(
                    facts, site.line, site.col,
                    message=(f"{fn.qualname} starts a self-rescheduling "
                             f"{site.method}() chain and drops the "
                             f"handle; no cancel path can ever stop the "
                             f"chain once the enclosing run ends"))
            elif chain and has_stop and site.fate == "self_attr" \
                    and not index.class_cancels(facts.module, fn.cls):
                yield self.finding(
                    facts, site.line, site.col,
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
                    yield self.finding(
                        facts, site.line, site.col,
                        message=(f"{fn.qualname} stores a {site.method}() "
                                 f"handle in a container but has no "
                                 f"cancel path for it"))
            elif site.fate == "arg_passed":
                yield from self._passed(index, fn, facts, site)

    def _passed(self, index: ProjectIndex, fn: FunctionFacts,
                facts: FileFacts, site) -> Iterator[Finding]:
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
        yield self.finding(
            facts, site.line, site.col,
            message=(f"{fn.qualname} hands its {site.method}() handle to "
                     f"{callee.qualname}(), which neither cancels, "
                     f"stores, nor returns it — the pending event "
                     f"outlives every reference to it"))

    def _dropped_at_caller(self, index: ProjectIndex, fn: FunctionFacts,
                           facts: FileFacts) -> Iterator[Finding]:
        for call in fn.calls:
            if call.form != "direct" or not call.discarded:
                continue
            targets = index.resolve(call.target)
            if len(targets) != 1:
                continue
            callee, _callee_facts = index.functions[next(iter(targets))]
            if not callee.returns_handle:
                continue
            yield self.finding(
                facts, call.line, call.col,
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

    def run(self, index: ProjectIndex) -> Iterator[Finding]:
        parents = index.reachable_from(taint_roots(index))
        for qualname in sorted(parents):
            fn, facts = index.functions[qualname]
            for site in fn.reductions:
                what = ("sums over an unordered set"
                        if site.kind == "sum_over_set"
                        else f"accumulates {site.detail} while iterating "
                             f"an unordered set")
                yield self.finding(
                    facts, site.line, site.col,
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
    path) must pre-draw its randomness into a buffer from ONE named
    stream before the sweep: a per-element ``stream()`` re-derives the
    SHA-256 key per descriptor (quadratic in cohort size), and, worse,
    makes the draw sequence depend on the sweep's iteration shape —
    splitting one cohort into two then consumes different streams, so
    scalar and batched replays diverge.
    """

    rule_id = "RAG106"
    title = "per-element stream() draw inside a vectorized sweep"
    severity = "error"

    def run(self, index: ProjectIndex) -> Iterator[Finding]:
        for qualname in sorted(index.functions):
            fn, facts = index.functions[qualname]
            for site in fn.rng:
                if site.kind != "loop_stream":
                    continue
                yield self.finding(
                    facts, site.line, site.col,
                    message=(f"{fn.qualname} draws a fresh "
                             f"{site.target}() per element of a sweep; "
                             f"pre-draw one named-stream buffer before "
                             f"the loop and index into it so scalar and "
                             f"batched replays consume identical "
                             f"sequences"))


FLOW_RULES: tuple[FlowRule, ...] = (
    GlobalRandomnessTaintRule(),
    UnseededGeneratorRule(),
    HandleEscapeRule(),
    UnorderedReductionRule(),
    LoopStreamDrawRule(),
)


def flow_rule_index() -> dict[str, FlowRule]:
    return {rule.rule_id: rule for rule in FLOW_RULES}


def run_analyses(index: ProjectIndex,
                 rules: Optional[Sequence[FlowRule]] = None
                 ) -> Iterator[Finding]:
    """Run the rules over the linked index, after one ``RAG000``
    finding per file that did not parse."""
    for facts in index.files.values():
        if facts.parse_error:
            yield Finding(path=facts.path, line=1, col=0, rule_id="RAG000",
                          severity="error",
                          message=f"syntax error: {facts.parse_error}")
    for rule in (rules if rules is not None else FLOW_RULES):
        yield from rule.run(index)


__all__ = [
    "FLOW_RULES",
    "FlowRule",
    "GlobalRandomnessTaintRule",
    "HandleEscapeRule",
    "LoopStreamDrawRule",
    "UnorderedReductionRule",
    "UnseededGeneratorRule",
    "flow_rule_index",
    "run_analyses",
    "taint_roots",
]
