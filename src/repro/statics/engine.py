"""tcblint driver: walk files, run rules, apply policy + suppressions.

The run is two-phase:

1. **Per-file rules** check each module in isolation as it is parsed.
2. **Project rules** (:class:`~repro.statics.rules.ProjectRule` — the
   cross-module TCB011) run once over every parsed module.

Findings from both phases pass through the same per-path policy and
inline-suppression filters.  A lint may analyze more files than it
reports on (``report_only``, used by ``--changed-only``): project rules
still see the whole package, so an RNG stream key in a changed file is
checked against every unchanged one, but findings and file counts
cover only the requested files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.statics.checks import ALL_RULES, RULES_BY_ID
from repro.statics.findings import Finding
from repro.statics.policy import DEFAULT_POLICY, PathPolicy, canonical_path
from repro.statics.rules import ModuleContext, ProjectRule, Rule, make_context
from repro.statics.suppressions import SuppressionMap, collect_suppressions

__all__ = ["LintReport", "lint_file", "lint_package", "lint_paths", "lint_source"]


@dataclass
class LintReport:
    """Result of a lint run over one or more paths."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0  # findings silenced by inline directives
    exempted: int = 0  # findings waived by the path policy
    parse_errors: list[str] = field(default_factory=list)
    # Stale inline directives: {"path", "line", "rule"} dicts
    # (populated after every run; gated on exit codes only by the
    # --report-unused-suppressions CLI flag).
    unused_suppressions: list[dict] = field(default_factory=list)
    # Findings filtered out by a --baseline file.
    baselined: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "exempted": self.exempted,
            "baselined": self.baselined,
            "parse_errors": list(self.parse_errors),
            "unused_suppressions": list(self.unused_suppressions),
            "findings": [f.to_dict() for f in self.findings],
        }


def _select_rules(rules: Optional[Sequence[str]]) -> list[Rule]:
    if rules is None:
        return list(ALL_RULES)
    selected = []
    for rid in rules:
        rid = rid.strip().upper()
        if rid not in RULES_BY_ID:
            raise ValueError(
                f"unknown rule {rid!r}; known: {', '.join(sorted(RULES_BY_ID))}"
            )
        selected.append(RULES_BY_ID[rid])
    return selected


@dataclass
class _FileState:
    """Per-file artifacts threaded between the two phases."""

    ctx: ModuleContext
    smap: SuppressionMap
    reported: bool  # findings on this file are kept (vs. analysis-only)


def _filter(
    finding: Finding,
    policy: Optional[PathPolicy],
    smap: SuppressionMap,
    report: LintReport,
) -> Optional[Finding]:
    """Route one finding through the policy and suppression filters."""
    if policy is not None and policy.is_exempt(finding.rule, finding.path):
        report.exempted += 1
        return None
    if smap.is_suppressed(finding.rule, finding.line):
        report.suppressed += 1
        return None
    return finding


def _collect_unused(
    states: Iterable[_FileState],
    selected: Sequence[Rule],
    report: LintReport,
) -> None:
    ran = {r.rule_id for r in selected}
    for st in states:
        if not st.reported:
            continue
        for d in st.smap.unused(ran):
            report.unused_suppressions.append(
                {"path": st.ctx.path, "line": d.line, "rule": d.rule}
            )


def _run_project_rules(
    states: list[_FileState],
    selected: Sequence[Rule],
    policy: Optional[PathPolicy],
    report: LintReport,
) -> list[Finding]:
    project_rules = [r for r in selected if isinstance(r, ProjectRule)]
    if not project_rules or not states:
        return []
    contexts = [st.ctx for st in states]
    by_path = {st.ctx.path: st for st in states}
    kept: list[Finding] = []
    for rule in project_rules:
        for finding in rule.check_project(contexts):
            st = by_path.get(finding.path)
            if st is None or not st.reported:
                continue  # analysis-only file (outside --changed-only set)
            f = _filter(finding, policy, st.smap, report)
            if f is not None:
                kept.append(f)
    return kept


def lint_source(
    source: str,
    path: str,
    *,
    rules: Optional[Sequence[str]] = None,
    policy: Optional[PathPolicy] = DEFAULT_POLICY,
    report: Optional[LintReport] = None,
) -> list[Finding]:
    """Lint one source string; *path* drives path-scoped rules/policy.

    The single module doubles as the whole "project" for the project
    rules, so fixtures exercise TCB011 in one file.
    """
    report = report if report is not None else LintReport()
    selected = _select_rules(rules)
    cpath = canonical_path(path)
    ctx = make_context(source, cpath)
    smap = collect_suppressions(source)
    st = _FileState(ctx=ctx, smap=smap, reported=True)
    kept: list[Finding] = []
    for rule in selected:
        for finding in rule.check(ctx):
            f = _filter(finding, policy, smap, report)
            if f is not None:
                kept.append(f)
    kept.extend(_run_project_rules([st], selected, policy, report))
    kept.sort(key=Finding.sort_key)
    report.findings.extend(kept)
    report.files_scanned += 1
    _collect_unused([st], selected, report)
    return kept


def lint_file(
    path: str | Path,
    *,
    rules: Optional[Sequence[str]] = None,
    policy: Optional[PathPolicy] = DEFAULT_POLICY,
    report: Optional[LintReport] = None,
) -> list[Finding]:
    report = report if report is not None else LintReport()
    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
        return lint_source(
            source, str(p), rules=rules, policy=policy, report=report
        )
    except (OSError, SyntaxError, ValueError) as exc:
        if isinstance(exc, ValueError) and "unknown rule" in str(exc):
            raise
        report.parse_errors.append(f"{canonical_path(str(p))}: {exc}")
        return []


def _iter_python_files(root: Path) -> Iterable[Path]:
    if root.is_file():
        yield root
        return
    for p in sorted(root.rglob("*.py")):
        if "__pycache__" in p.parts:
            continue
        yield p


def lint_paths(
    paths: Sequence[str | Path],
    *,
    rules: Optional[Sequence[str]] = None,
    policy: Optional[PathPolicy] = DEFAULT_POLICY,
    report_only: Optional[set[str]] = None,
) -> LintReport:
    """Lint every ``*.py`` under the given files/directories.

    With ``report_only`` (a set of canonical paths), every file is still
    *parsed* — project rules need the full module set — but per-file
    rules, findings and ``files_scanned`` cover only the listed files.
    """
    report = LintReport()
    selected = _select_rules(rules)
    states: list[_FileState] = []
    for root in paths:
        rp = Path(root)
        if not rp.exists():
            # A typo'd path must not report green in CI.
            report.parse_errors.append(f"{root}: path does not exist")
            continue
        for p in _iter_python_files(rp):
            cpath = canonical_path(str(p))
            reported = report_only is None or cpath in report_only
            try:
                source = p.read_text(encoding="utf-8")
                ctx = make_context(source, cpath)
            except (OSError, SyntaxError, ValueError) as exc:
                if reported:
                    report.parse_errors.append(f"{cpath}: {exc}")
                continue
            smap = collect_suppressions(source)
            st = _FileState(ctx=ctx, smap=smap, reported=reported)
            states.append(st)
            if not reported:
                continue
            report.files_scanned += 1
            for rule in selected:
                for finding in rule.check(ctx):
                    f = _filter(finding, policy, smap, report)
                    if f is not None:
                        report.findings.append(f)
    report.findings.extend(
        _run_project_rules(states, selected, policy, report)
    )
    report.findings.sort(key=Finding.sort_key)
    _collect_unused(states, selected, report)
    return report


def lint_package(
    *,
    rules: Optional[Sequence[str]] = None,
    policy: Optional[PathPolicy] = DEFAULT_POLICY,
    report_only: Optional[set[str]] = None,
) -> LintReport:
    """Lint the installed ``repro`` package source itself.

    This is what ``python -m repro lint`` (no arguments) and the tier-1
    ``tests/test_statics_clean.py`` run, so it works from any cwd.
    """
    package_root = Path(__file__).resolve().parent.parent  # .../repro
    return lint_paths(
        [package_root], rules=rules, policy=policy, report_only=report_only
    )
