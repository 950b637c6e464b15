"""Command-line entry point.

Usage::

    python -m repro.lint src/repro tests          # per-file rules
    python -m repro.lint --flow src/repro         # whole-program pass
    python -m repro.lint --list-rules             # per-file + flow rules
    python -m repro.lint --audit inter-mr         # runtime replay audit

Exit status: 0 when clean, 1 on findings (or audit divergence), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.lint.determinism import AUDITS, run_audit
from repro.lint.engine import run_lint
from repro.lint.rules import default_rules, rule_index


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Ragnar determinism & invariant checks "
                    "(static rules + whole-program flow analyses + "
                    "runtime replay audits).",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--exclude", action="append", default=[],
                        metavar="PREFIX",
                        help="path prefix to skip while walking "
                             "directories (repeatable)")
    parser.add_argument("--include-suppressed", action="store_true",
                        help="also print suppressed findings")
    parser.add_argument("--list-rules", action="store_true",
                        help="list the rule pack and exit")
    parser.add_argument("--flow", action="store_true",
                        help="run the whole-program flow analyses "
                             "(RAG100, RAG101, RAG104-RAG106) instead "
                             "of the per-file rules")
    parser.add_argument("--audit", choices=sorted(AUDITS), default=None,
                        help="run a canned runtime determinism audit "
                             "instead of the static pass")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for --audit (default: 0)")
    parser.add_argument("--runs", type=int, default=2,
                        help="replay count for --audit (default: 2)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, cls in sorted(rule_index().items()):
            print(f"{rule_id}  {cls.title}")
        from repro.lint.flow.analyses import flow_rule_index
        for rule_id, rule in sorted(flow_rule_index().items()):
            print(f"{rule_id}  {rule.title} (--flow)")
        return 0

    if args.audit:
        if args.runs < 2:
            parser.error(f"--runs must be at least 2 to compare replays, got {args.runs}")
        report = run_audit(args.audit, seed=args.seed, runs=args.runs)
        print(report.summary())
        return 0 if report.deterministic else 1

    paths = args.paths or ["src/repro"]
    missing = [p for p in paths if not pathlib.Path(p).exists()]
    if missing:
        parser.error("no such file or directory: " + ", ".join(missing))
    if args.flow:
        from repro.lint.flow import run_flow
        report = run_flow(paths, exclude=args.exclude)
    else:
        report = run_lint(paths, rules=default_rules(), exclude=args.exclude)

    for finding in report.findings:
        if args.include_suppressed or not finding.suppressed:
            print(finding.format())
    print(report.summary())
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
