"""The rule engine: file walking, AST parsing, suppressions, reporting.

``repro.lint`` is a *repo-specific* static-analysis pass.  Generic
linters cannot know that ``Simulator.now`` is kernel-owned state, that
all randomness must flow through :class:`repro.sim.random.RandomStreams`,
or that a ``time.time()`` call inside a model silently breaks the
bit-identical-replay promise every experiment depends on.  The engine
here is deliberately small: one :class:`Rule` per invariant, an
``ast``-based walk per file, and inline ``# ragnar-lint: disable=RAGxxx``
suppressions for the rare sanctioned exception.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
from typing import Iterable, Iterator, Optional, Sequence

#: Directory names never descended into when walking a tree.  Explicitly
#: named paths (files or directories) are always linted, so fixture
#: corpora can still be targeted directly.
SKIPPED_DIRS = {".git", "__pycache__", ".venv", "venv", "build", "dist",
                ".mypy_cache", ".ruff_cache", ".pytest_cache", "node_modules"}

#: Inline suppression syntax: ``# ragnar-lint: disable=RAG001,RAG007``
#: (or ``disable=all``) on the offending line.
SUPPRESS_RE = re.compile(r"#\s*ragnar-lint:\s*disable=([A-Za-z0-9_,\s]+)")

#: Pseudo-rule id for files the engine cannot parse.
PARSE_ERROR_ID = "RAG000"


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: str
    message: str
    suppressed: bool = False

    def format(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} [{self.severity}] {self.message}{mark}")


@dataclasses.dataclass(frozen=True)
class FileContext:
    """Everything a rule needs to check one file."""

    path: str
    #: Package-relative module path ("repro/sim/kernel.py"), or ``None``
    #: when the file lives outside the ``repro`` package.
    module: Optional[str]
    tree: ast.AST
    lines: tuple[str, ...]


class Rule:
    """One invariant.  Subclasses set the class attributes and implement
    :meth:`check`, yielding findings for a single file."""

    rule_id: str = "RAG999"
    title: str = ""
    severity: str = "error"
    #: Package-relative path prefixes this rule applies to; ``None``
    #: applies everywhere (including files outside the package).
    scope: Optional[tuple[str, ...]] = None
    #: Package-relative path prefixes exempt from this rule.
    exclude: tuple[str, ...] = ()

    def applies_to(self, module: Optional[str]) -> bool:
        if module is not None and any(module.startswith(e) for e in self.exclude):
            return False
        if self.scope is None:
            return True
        if module is None:
            return False
        return any(module.startswith(prefix) for prefix in self.scope)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
        )


@dataclasses.dataclass
class LintReport:
    """Aggregate result of one engine run."""

    findings: list[Finding] = dataclasses.field(default_factory=list)
    files_scanned: int = 0

    @property
    def active(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def clean(self) -> bool:
        return not self.active

    def summary(self) -> str:
        return (f"{self.files_scanned} files scanned: "
                f"{len(self.active)} finding(s), "
                f"{len(self.suppressed)} suppressed")


def module_path_for(path: pathlib.Path) -> Optional[str]:
    """The package-relative module path, anchored at the *last* ``repro``
    directory component — ``None`` for files outside the package."""
    parts = path.resolve().parts
    anchor = None
    for index, part in enumerate(parts):
        if part == "repro":
            anchor = index
    if anchor is None:
        return None
    return "/".join(parts[anchor:])


def parse_suppressions(lines: Sequence[str]) -> dict[int, set[str]]:
    """Map of 1-based line number -> rule ids disabled on that line."""
    table: dict[int, set[str]] = {}
    for number, line in enumerate(lines, start=1):
        match = SUPPRESS_RE.search(line)
        if match:
            ids = {token.strip() for token in match.group(1).split(",")}
            table[number] = {i for i in ids if i}
    return table


def iter_python_files(paths: Iterable[str],
                      exclude: Sequence[str] = ()) -> Iterator[pathlib.Path]:
    """Expand files/directories into ``.py`` files, deterministically.

    ``exclude`` entries are path prefixes (matched against the resolved
    POSIX path) pruned while *walking* directories; explicitly named
    paths always survive.
    """
    resolved_excludes = [str(pathlib.Path(e).resolve()) for e in exclude]

    def excluded(path: pathlib.Path) -> bool:
        text = str(path.resolve())
        return any(text == e or text.startswith(e + "/")
                   for e in resolved_excludes)

    seen: set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_file():
            if path not in seen:
                seen.add(path)
                yield path
            continue
        for child in sorted(path.rglob("*.py")):
            if child in seen:
                continue
            if any(part in SKIPPED_DIRS for part in child.parts):
                continue
            if excluded(child):
                continue
            seen.add(child)
            yield child


def lint_source(source: str, *, path: str = "<string>",
                module: Optional[str] = None,
                rules: Optional[Sequence[Rule]] = None) -> list[Finding]:
    """Lint a source string (the embedding/testing entry point).

    ``module`` is the virtual package-relative path used for rule
    scoping, e.g. ``"repro/rnic/model.py"``.
    """
    if rules is None:
        from repro.lint.rules import default_rules
        rules = default_rules()
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [Finding(path=path, line=error.lineno or 1,
                        col=error.offset or 0, rule_id=PARSE_ERROR_ID,
                        severity="error",
                        message=f"could not parse file: {error.msg}")]
    lines = tuple(source.splitlines())
    ctx = FileContext(path=path, module=module, tree=tree, lines=lines)
    suppressions = parse_suppressions(lines)
    findings = []
    for rule in rules:
        if not rule.applies_to(module):
            continue
        for finding in rule.check(ctx):
            disabled = suppressions.get(finding.line, ())
            if finding.rule_id in disabled or "all" in disabled:
                finding = dataclasses.replace(finding, suppressed=True)
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def run_lint(paths: Iterable[str], *,
             rules: Optional[Sequence[Rule]] = None,
             exclude: Sequence[str] = ()) -> LintReport:
    """Lint files/directories and aggregate a :class:`LintReport`."""
    if rules is None:
        from repro.lint.rules import default_rules
        rules = default_rules()
    report = LintReport()
    for file_path in iter_python_files(paths, exclude=exclude):
        report.files_scanned += 1
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            report.findings.append(Finding(
                path=str(file_path), line=1, col=0, rule_id=PARSE_ERROR_ID,
                severity="error", message=f"could not read file: {error}"))
            continue
        report.findings.extend(lint_source(
            source, path=str(file_path),
            module=module_path_for(file_path), rules=rules))
    return report
