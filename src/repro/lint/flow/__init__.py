"""Whole-program flow analyses for the parallel simulator.

The per-file rules in :mod:`repro.lint.rules` are intraprocedural:
they can see ``time.time()`` on the line where it happens, but not a
raw RNG hidden two calls below an experiment, or a schedule handle
that escapes its creator and never meets a ``sim.cancel()``.  This
package closes that gap with a small whole-program pipeline:

1. **extract** (:mod:`repro.lint.flow.facts`) — one pass per file
   producing JSON-serializable :class:`~repro.lint.flow.facts.FileFacts`
   (functions, resolved call/reference targets, RNG sites,
   schedule-handle fates, reduction sites).
2. **link** (:mod:`repro.lint.flow.project`) — a project-wide symbol
   table and call graph over the extracted facts, with reachability
   queries anchored at the experiment registry
   (``repro.experiments.runner.run_task``) and the channel/fault
   subsystems.
3. **analyse** (:mod:`repro.lint.flow.analyses`) — the RAG100, RAG101
   and RAG104–RAG106 dataflow rules; findings reuse
   :class:`repro.lint.engine.Finding` and honour the same inline
   ``# ragnar-lint: disable=RAGxxx`` suppressions.

Entry point::

    from repro.lint.flow import run_flow
    report = run_flow(["src/repro"])   # a repro.lint.engine.LintReport

or ``python -m repro.lint --flow`` (see docs/LINT.md).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.lint.engine import Finding, LintReport, iter_python_files
from repro.lint.flow.analyses import FLOW_RULES, FlowRule, run_analyses
from repro.lint.flow.facts import extract_facts
from repro.lint.flow.project import ProjectIndex


def run_flow(paths: Iterable[str], *,
             rules: Optional[Sequence[FlowRule]] = None,
             exclude: Sequence[str] = ()) -> LintReport:
    """Run the whole-program analyses over ``paths``."""
    report = LintReport()
    index = ProjectIndex()
    for file_path in iter_python_files(paths, exclude=exclude):
        report.files_scanned += 1
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            report.findings.append(Finding(
                path=str(file_path), line=1, col=0, rule_id="RAG000",
                severity="error", message=f"could not read file: {error}"))
            continue
        index.add(extract_facts(source, path=str(file_path)))
    index.link()
    report.findings.extend(run_analyses(index, rules=rules))
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return report


__all__ = [
    "FLOW_RULES",
    "FlowRule",
    "ProjectIndex",
    "run_flow",
]
