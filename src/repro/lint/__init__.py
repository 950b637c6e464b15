"""Determinism & invariant checks for the Ragnar reproduction.

Three complementary parts:

* a **static pass** (:mod:`repro.lint.engine` + :mod:`repro.lint.rules`):
  an AST rule engine with repo-specific per-file checks (RAG001,
  RAG003–RAG008), runnable as ``python -m repro.lint src/repro tests``;
* a **whole-program pass** (:mod:`repro.lint.flow`): the RAG100,
  RAG101 and RAG104–RAG106 dataflow rules over the call graph,
  ``python -m repro.lint --flow``;
* a **runtime auditor** (:mod:`repro.lint.determinism`): replays a
  workload from one seed and fails on any payload or event-trace
  divergence.

See docs/LINT.md for the rule catalogue and suppression syntax.
"""

from repro.lint.determinism import (
    AuditReport,
    RunRecord,
    audit_callable,
    audit_experiment,
    audit_simulator,
    fingerprint,
    run_audit,
)
from repro.lint.engine import (
    FileContext,
    Finding,
    LintReport,
    Rule,
    lint_source,
    run_lint,
)
from repro.lint.rules import default_rules, rule_index

__all__ = [
    "AuditReport",
    "RunRecord",
    "audit_callable",
    "audit_experiment",
    "audit_simulator",
    "fingerprint",
    "run_audit",
    "FileContext",
    "Finding",
    "LintReport",
    "Rule",
    "lint_source",
    "run_lint",
    "default_rules",
    "rule_index",
]
