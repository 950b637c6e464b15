"""Whole-program flow analyses for the parallel simulator.

The per-file rules in :mod:`repro.lint.rules` are intraprocedural:
they can see ``time.time()`` on the line where it happens, but not a
raw RNG hidden two calls below an experiment, a module-level cache
that a ``--jobs`` worker mutates, or a schedule handle that escapes
its creator and never meets a ``sim.cancel()``.  This package closes
that gap with a small whole-program pipeline:

1. **extract** (:mod:`repro.lint.flow.facts`) — one pass per file
   producing JSON-serializable :class:`~repro.lint.flow.facts.FileFacts`
   (functions, resolved call/reference targets, RNG sites, module-global
   writes, schedule-handle fates, reduction sites).
2. **link** (:mod:`repro.lint.flow.project`) — a project-wide symbol
   table and call graph over the extracted facts, with reachability
   queries anchored at the experiment registry
   (``repro.experiments.runner.run_task``) and the channel/fault
   subsystems.
3. **analyse** (:mod:`repro.lint.flow.analyses`) — the RAG100–RAG106
   dataflow rules.
4. **report** — findings reuse :class:`repro.lint.engine.Finding`; known
   sanctioned findings live in a committed baseline
   (:mod:`repro.lint.flow.baseline`) keyed by stable fingerprints, not
   line numbers.

Entry point::

    from repro.lint.flow import run_flow
    report = run_flow(["src/repro"])   # FlowReport

or ``python -m repro.lint --flow`` (see docs/LINT.md).
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Iterable, Optional, Sequence

from repro.lint.engine import Finding, iter_python_files
from repro.lint.flow.analyses import FLOW_RULES, FlowRule, run_analyses
from repro.lint.flow.baseline import Baseline, load_baseline
from repro.lint.flow.facts import extract_facts
from repro.lint.flow.project import ProjectIndex


@dataclasses.dataclass
class FlowFinding:
    """A finding plus its location-independent baseline fingerprint."""

    finding: Finding
    #: ``(rule_id, module_path, function_qualname, key)`` — stable under
    #: unrelated edits (no line numbers), used for baseline matching.
    fingerprint: tuple[str, str, str, str]


@dataclasses.dataclass
class FlowReport:
    """Aggregate result of one whole-program flow run."""

    findings: list[FlowFinding] = dataclasses.field(default_factory=list)
    files_scanned: int = 0
    baselined: int = 0

    @property
    def active(self) -> list[Finding]:
        return [f.finding for f in self.findings if not f.finding.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f.finding for f in self.findings if f.finding.suppressed]

    @property
    def clean(self) -> bool:
        return not self.active

    def summary(self) -> str:
        return (f"{self.files_scanned} files analysed: "
                f"{len(self.active)} finding(s), "
                f"{len(self.suppressed)} suppressed, "
                f"{self.baselined} baselined")


def default_baseline_path() -> Optional[pathlib.Path]:
    """The committed repo baseline (``tools/flow_baseline.json``), or
    ``None`` when the package is not running from a source checkout."""
    here = pathlib.Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "tools" / "flow_baseline.json"
        if candidate.exists():
            return candidate
    return None


def run_flow(paths: Iterable[str], *,
             rules: Optional[Sequence[FlowRule]] = None,
             exclude: Sequence[str] = (),
             baseline: Optional[Baseline] = None) -> FlowReport:
    """Run the whole-program analyses over ``paths``.

    ``baseline`` drops known sanctioned findings from the report and
    counts them in :attr:`FlowReport.baselined`.
    """
    report = FlowReport()
    index = ProjectIndex()
    for file_path in iter_python_files(paths, exclude=exclude):
        report.files_scanned += 1
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            report.findings.append(FlowFinding(
                finding=Finding(path=str(file_path), line=1, col=0,
                                rule_id="RAG000", severity="error",
                                message=f"could not read file: {error}"),
                fingerprint=("RAG000", str(file_path), "", "unreadable")))
            continue
        index.add(extract_facts(source, path=str(file_path)))
    index.link()
    for flow_finding in run_analyses(index, rules=rules):
        report.findings.append(flow_finding)
    if baseline is not None:
        kept = []
        for flow_finding in report.findings:
            if baseline.matches(flow_finding.fingerprint):
                report.baselined += 1
            else:
                kept.append(flow_finding)
        report.findings = kept
    report.findings.sort(key=lambda f: (f.finding.path, f.finding.line,
                                        f.finding.col, f.finding.rule_id))
    return report


__all__ = [
    "FLOW_RULES",
    "Baseline",
    "FlowFinding",
    "FlowReport",
    "FlowRule",
    "ProjectIndex",
    "default_baseline_path",
    "load_baseline",
    "run_flow",
]
