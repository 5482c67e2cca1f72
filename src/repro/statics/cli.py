"""The ``python -m repro lint`` subcommand.

``paths`` (default: the installed package), ``--rules``, ``--format``,
``--out`` and ``--list-rules`` are the whole surface.  Output formats:
human ``text``, machine ``json``, and ``sarif`` for code-scanning UIs.
All three share one exit code: 0 = clean, 1 = findings, parse errors
or a stale ``# tcblint: disable`` directive, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.statics.checks import ALL_RULES
from repro.statics.engine import LintReport, lint_package, lint_paths
from repro.statics.sarif import to_sarif

__all__ = ["add_lint_parser", "run_lint"]


def add_lint_parser(subparsers) -> argparse.ArgumentParser:
    p = subparsers.add_parser(
        "lint",
        help="run tcblint, the repo's AST-based invariant checker",
        description=(
            "Check repo invariants (mask discipline, RNG threading, "
            "sim-time purity, dtype, mutable defaults, quadratic "
            "allocations, swallowed exceptions, RNG stream aliasing) "
            "over the repro package or the given paths."
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the installed repro package)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        dest="fmt",
    )
    p.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all), e.g. TCB001,TCB003",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.set_defaults(func=run_lint)
    return p


def _render_text(report: LintReport) -> str:
    lines = [f.render() for f in report.findings]
    lines.extend(f"parse error: {e}" for e in report.parse_errors)
    lines.extend(report.stale_lines())
    lines.append(
        f"tcblint: {len(report.findings)} finding(s) in "
        f"{report.files_scanned} file(s) "
        f"({report.suppressed} suppressed inline, "
        f"{report.exempted} waived by policy)"
    )
    return "\n".join(lines)


def run_lint(args) -> int:
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  [{rule.severity.value:7s}] {rule.title}")
        return 0
    rules = args.rules.split(",") if args.rules else None
    try:
        if args.paths:
            report = lint_paths(args.paths, rules=rules)
        else:
            report = lint_package(rules=rules)
    except ValueError as exc:  # unknown rule id
        print(f"tcblint: {exc}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        text = json.dumps(report.to_dict(), indent=2)
    elif args.fmt == "sarif":
        text = json.dumps(to_sarif(report, ALL_RULES), indent=2)
    else:
        text = _render_text(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0 if report.clean else 1
