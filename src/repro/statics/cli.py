"""The ``python -m repro lint`` subcommand.

Output formats (``--format``): human ``text``, machine ``json``, and
``sarif`` for code-scanning UIs.  All three share one exit-code path
(:func:`_exit_code`), so CI behaves identically whichever format it
captures.

Incremental modes:

- ``--changed-only`` restricts *reported* files to those changed since
  ``merge-base(HEAD, origin/main)`` (plus worktree edits and untracked
  files).  The whole package is still parsed so the project-wide rule
  (TCB011) compares a changed file against every other.  Outside a git
  checkout the flag degrades to linting everything — it can hide
  findings only when git can actually say what changed.
- ``--baseline FILE`` drops findings recorded in a snapshot written by
  ``--write-baseline FILE``; only *new* findings fail the run.
- ``--report-unused-suppressions`` additionally fails the run when an
  inline ``# tcblint: disable`` directive no longer suppresses anything.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Optional

from repro.statics.baseline import apply_baseline, load_baseline, write_baseline
from repro.statics.checks import ALL_RULES
from repro.statics.engine import LintReport, lint_package, lint_paths
from repro.statics.policy import canonical_path
from repro.statics.sarif import to_sarif

__all__ = ["add_lint_parser", "run_lint"]


def add_lint_parser(subparsers) -> argparse.ArgumentParser:
    p = subparsers.add_parser(
        "lint",
        help="run tcblint, the repo's AST-based invariant checker",
        description=(
            "Check repo invariants (mask discipline, RNG threading, "
            "sim-time purity, dtype, mutable defaults, quadratic "
            "allocations, ledger escapes, time-domain taint, RNG stream "
            "aliasing, typed-fault escapes) over the repro package or "
            "the given paths."
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
        "--no-policy",
        action="store_true",
        help="ignore the per-path exemption policy (show waived findings too)",
    )
    p.add_argument(
        "--changed-only",
        action="store_true",
        help=(
            "report findings only for files changed vs. "
            "merge-base(HEAD, origin/main); all files are still analyzed"
        ),
    )
    p.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppress findings recorded in this snapshot (only new ones fail)",
    )
    p.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="snapshot current findings to FILE and exit 0",
    )
    p.add_argument(
        "--report-unused-suppressions",
        action="store_true",
        help="fail when an inline tcblint directive no longer fires",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.set_defaults(func=run_lint)
    return p


def _git(*argv: str) -> Optional[str]:
    """Run one git command; None on any failure (no repo, no ref, …)."""
    try:
        proc = subprocess.run(
            ["git", *argv],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout


def _changed_files() -> Optional[set[str]]:
    """Canonical paths of files changed vs. the main branch.

    Returns None when git cannot answer (not a checkout, git missing),
    which callers treat as "lint everything" — degrading to *more*
    coverage, never less.  With no usable merge base (e.g. a repo with
    no ``origin``), the diff base falls back to local ``main`` and then
    to ``HEAD``, so worktree edits and untracked files still count.
    """
    if _git("rev-parse", "--git-dir") is None:
        return None
    base = None
    for ref in ("origin/main", "main"):
        out = _git("merge-base", "HEAD", ref)
        if out is not None:
            base = out.strip()
            break
    diff = _git("diff", "--name-only", base if base else "HEAD")
    untracked = _git("ls-files", "--others", "--exclude-standard")
    if diff is None and untracked is None:
        return None
    changed: set[str] = set()
    for blob in (diff or "", untracked or ""):
        for line in blob.splitlines():
            line = line.strip()
            if line.endswith(".py"):
                changed.add(canonical_path(line))
    return changed


def _render_text(report: LintReport, args) -> str:
    lines = [f.render() for f in report.findings]
    lines.extend(f"parse error: {e}" for e in report.parse_errors)
    if args.report_unused_suppressions:
        lines.extend(
            f"{d['path']}:{d['line']}: unused suppression "
            f"[{d['rule']}] (directive never fired)"
            for d in report.unused_suppressions
        )
    summary = (
        f"tcblint: {len(report.findings)} finding(s) in "
        f"{report.files_scanned} file(s) "
        f"({report.suppressed} suppressed inline, "
        f"{report.exempted} waived by policy"
    )
    if report.baselined:
        summary += f", {report.baselined} baselined"
    summary += ")"
    lines.append(summary)
    return "\n".join(lines)


def _exit_code(report: LintReport, args) -> int:
    """One exit-code policy for every output format.

    0 = clean, 1 = findings / parse errors (or stale suppressions under
    ``--report-unused-suppressions``), 2 = usage error (raised earlier).
    """
    if not report.clean:
        return 1
    if args.report_unused_suppressions and report.unused_suppressions:
        return 1
    return 0


def run_lint(args) -> int:
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  [{rule.severity.value:7s}] {rule.title}")
        return 0
    kwargs = {"rules": args.rules.split(",") if args.rules else None}
    if args.no_policy:
        kwargs["policy"] = None
    if args.changed_only:
        kwargs["report_only"] = _changed_files()
    try:
        if args.paths:
            report = lint_paths(args.paths, **kwargs)
        else:
            report = lint_package(**kwargs)
    except ValueError as exc:  # unknown rule id
        print(f"tcblint: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        n = write_baseline(report, args.write_baseline)
        print(f"tcblint: wrote baseline ({n} finding(s)) to {args.write_baseline}")
        # Snapshotting a dirty tree is the point; only broken files fail.
        return 1 if report.parse_errors else 0
    if args.baseline:
        try:
            budgets = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"tcblint: bad baseline: {exc}", file=sys.stderr)
            return 2
        apply_baseline(report, budgets)
    if args.fmt == "json":
        text = json.dumps(report.to_dict(), indent=2)
    elif args.fmt == "sarif":
        text = json.dumps(to_sarif(report, ALL_RULES), indent=2)
    else:
        text = _render_text(report, args)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return _exit_code(report, args)
