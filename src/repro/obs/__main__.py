"""CLI: validate and report on observability artifacts.

::

    python -m repro.obs validate out/table5.trace.jsonl \
        out/table5.trace.json out/table5.metrics.json
    python -m repro.obs report out/ --out out/run.report.md

``validate`` exits 1 and prints each problem when any file fails its
schema (the ``tools/check.sh`` obs smoke stage).  ``report`` renders a
deterministic markdown run report (same seed ⇒ same bytes; the check.sh
insight stage diffs it against a committed golden).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from .exporters import validate_path
from .insight.report import DEFAULT_TOP, render_report


def _cmd_validate(args) -> int:
    status = 0
    for path in args.paths:
        if not path.exists():
            print(f"repro.obs: {path}: no such file")
            status = 1
            continue
        errors = validate_path(path)
        if errors:
            status = 1
            for error in errors:
                print(f"repro.obs: {error}")
        else:
            print(f"repro.obs: {path}: ok")
    return status


def _cmd_report(args) -> int:
    try:
        text = render_report(args.run_dir, names=args.names or None,
                             history_dir=args.history, top=args.top)
    except FileNotFoundError as error:
        print(f"repro.obs: {error}", file=sys.stderr)
        return 2
    if args.out is None:
        print(text, end="")
    else:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
        print(f"repro.obs: wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser(
        "validate", help="schema-check trace/metrics artifacts")
    validate.add_argument("paths", nargs="+", type=pathlib.Path)
    validate.set_defaults(func=_cmd_validate)

    report = sub.add_parser(
        "report", help="render a markdown run report for a run directory")
    report.add_argument("run_dir", type=pathlib.Path)
    report.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the report here (default: stdout)")
    report.add_argument("--names", nargs="*", default=None,
                        help="restrict to these experiment names")
    report.add_argument("--history", type=pathlib.Path, default=None,
                        help="bench_gate history dir for trend lines "
                             "(e.g. benchmarks/history)")
    report.add_argument("--top", type=int, default=DEFAULT_TOP,
                        help=f"slow spans to list (default {DEFAULT_TOP})")
    report.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    if args.command == "report" and args.top < 1:
        parser.error("--top must be positive")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
