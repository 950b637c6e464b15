"""Command-line entry point.

Usage::

    python -m repro.lint src/repro tests          # lint, text output
    python -m repro.lint src/ --format json       # machine-readable
    python -m repro.lint src/ --format sarif      # CI code scanning
    python -m repro.lint --flow src/repro         # whole-program pass
    python -m repro.lint --flow --update-baseline # accept findings
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
from repro.lint.output import findings_to_json, findings_to_sarif
from repro.lint.rules import default_rules, rule_index


def _emit(findings, *, fmt: str, include_suppressed: bool,
          files_scanned: int, summary: str, rule_titles,
          extra=None) -> None:
    shown = [f for f in findings if include_suppressed or not f.suppressed]
    if fmt == "json":
        print(findings_to_json(shown, files_scanned=files_scanned,
                               extra=extra))
    elif fmt == "sarif":
        print(findings_to_sarif(shown, rule_titles=rule_titles))
    else:
        for finding in shown:
            print(finding.format())
        print(summary)


def _run_flow(args, parser) -> int:
    from repro.lint import flow
    from repro.lint.flow.analyses import flow_rule_index
    from repro.lint.flow.baseline import Baseline, load_baseline

    paths = args.paths or ["src/repro"]
    missing = [p for p in paths if not pathlib.Path(p).exists()]
    if missing:
        parser.error("no such file or directory: " + ", ".join(missing))

    baseline_path = (pathlib.Path(args.baseline) if args.baseline
                     else flow.default_baseline_path())
    baseline = None
    if baseline_path is not None and not args.update_baseline:
        baseline = load_baseline(baseline_path)

    report = flow.run_flow(paths, exclude=args.exclude, baseline=baseline)

    if args.update_baseline:
        if baseline_path is None:
            parser.error("--update-baseline needs --baseline PATH "
                         "(no tools/flow_baseline.json found)")
        new_baseline = Baseline(
            ff.fingerprint for ff in report.findings
            if not ff.finding.suppressed)
        new_baseline.save(baseline_path)
        print(f"baseline updated: {len(new_baseline)} finding(s) "
              f"written to {baseline_path}")
        return 0

    titles = {rule_id: rule.title
              for rule_id, rule in flow_rule_index().items()}
    titles["RAG000"] = "file could not be parsed"
    _emit(sorted((ff.finding for ff in report.findings),
                 key=lambda f: (f.path, f.line, f.col, f.rule_id)),
          fmt=args.format, include_suppressed=args.include_suppressed,
          files_scanned=report.files_scanned, summary=report.summary(),
          rule_titles=titles,
          extra={"baselined": report.baselined})
    return 0 if report.clean else 1


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
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text")
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
                             "(RAG100-RAG106) instead of the per-file "
                             "rules")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="flow baseline file (default: the "
                             "committed tools/flow_baseline.json)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write the current flow findings to the "
                             "baseline instead of failing on them")
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

    if args.flow:
        return _run_flow(args, parser)
    if args.update_baseline:
        parser.error("--update-baseline only applies to --flow")

    paths = args.paths or ["src/repro"]
    missing = [p for p in paths if not pathlib.Path(p).exists()]
    if missing:
        parser.error("no such file or directory: " + ", ".join(missing))
    report = run_lint(paths, rules=default_rules(), exclude=args.exclude)

    titles = {rule_id: cls.title for rule_id, cls in rule_index().items()}
    _emit(report.findings, fmt=args.format,
          include_suppressed=args.include_suppressed,
          files_scanned=report.files_scanned, summary=report.summary(),
          rule_titles=titles)
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
