"""tcblint driver: walk files, run rules, apply policy + suppressions.

Every entry point parses its modules and hands them to one loop
(:func:`_check`), which runs in two phases:

1. **Per-file rules** check each module in isolation.
2. **Project rules** (:class:`~repro.statics.rules.ProjectRule` — the
   cross-module TCB011) run once over every parsed module.

Findings from both phases pass through the same per-path policy and
inline-suppression filters, and a directive that silenced nothing is
reported as stale.
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
    # Stale inline directives: {"path", "line", "rule"} dicts.  A
    # directive that outlived the code it excused fails the run.
    unused_suppressions: list[dict] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.findings or self.parse_errors or self.unused_suppressions)

    def stale_lines(self) -> list[str]:
        """One human-readable line per stale directive."""
        return [
            f"{d['path']}:{d['line']}: unused suppression "
            f"[{d['rule']}] (directive never fired)"
            for d in self.unused_suppressions
        ]

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "exempted": self.exempted,
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
class _Module:
    """One parsed file: what the rules see and what may silence them."""

    ctx: ModuleContext
    smap: SuppressionMap


def _parse(source: str, cpath: str) -> _Module:
    return _Module(make_context(source, cpath), collect_suppressions(source))


def _load(p: Path, report: LintReport) -> Optional[_Module]:
    """Read and parse one file; a file that cannot be is a parse error."""
    cpath = canonical_path(str(p))
    try:
        return _parse(p.read_text(encoding="utf-8"), cpath)
    except (OSError, SyntaxError, ValueError) as exc:
        report.parse_errors.append(f"{cpath}: {exc}")
        return None


def _check(
    modules: Sequence[_Module],
    rules: Optional[Sequence[str]],
    policy: Optional[PathPolicy],
    report: LintReport,
) -> list[Finding]:
    """Run the selected rules over *modules*, book the outcome in *report*.

    Returns the findings that survived the policy and the inline
    directives, sorted; the same list is appended to ``report.findings``.
    """
    selected = _select_rules(rules)
    raw = [(m, f) for m in modules for rule in selected for f in rule.check(m.ctx)]
    by_path = {m.ctx.path: m for m in modules}
    contexts = [m.ctx for m in modules]
    for rule in selected:
        if isinstance(rule, ProjectRule):
            raw.extend((by_path[f.path], f) for f in rule.check_project(contexts))
    kept: list[Finding] = []
    for module, finding in raw:
        if policy is not None and policy.is_exempt(finding.rule, finding.path):
            report.exempted += 1
        elif module.smap.is_suppressed(finding.rule, finding.line):
            report.suppressed += 1
        else:
            kept.append(finding)
    kept.sort(key=Finding.sort_key)
    report.findings.extend(kept)
    report.files_scanned += len(modules)
    ran = {r.rule_id for r in selected}
    for m in modules:
        report.unused_suppressions.extend(
            {"path": m.ctx.path, "line": d.line, "rule": d.rule}
            for d in m.smap.unused(ran)
        )
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
    return _check([_parse(source, canonical_path(path))], rules, policy, report)


def lint_file(
    path: str | Path,
    *,
    rules: Optional[Sequence[str]] = None,
    policy: Optional[PathPolicy] = DEFAULT_POLICY,
    report: Optional[LintReport] = None,
) -> list[Finding]:
    report = report if report is not None else LintReport()
    module = _load(Path(path), report)
    return _check([module] if module else [], rules, policy, report)


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
) -> LintReport:
    """Lint every ``*.py`` under the given files/directories, each file
    once however many of the arguments reach it."""
    report = LintReport()
    modules: list[_Module] = []
    seen: set[Path] = set()
    for root in paths:
        rp = Path(root)
        if not rp.exists():
            # A typo'd path must not report green in CI.
            report.parse_errors.append(f"{root}: path does not exist")
            continue
        for p in _iter_python_files(rp):
            resolved = p.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            module = _load(p, report)
            if module is not None:
                modules.append(module)
    _check(modules, rules, policy, report)
    return report


def lint_package(
    *,
    rules: Optional[Sequence[str]] = None,
    policy: Optional[PathPolicy] = DEFAULT_POLICY,
) -> LintReport:
    """Lint the installed ``repro`` package source itself.

    This is what ``python -m repro lint`` (no arguments) and the tier-1
    ``tests/test_statics_clean.py`` run, so it works from any cwd.
    """
    package_root = Path(__file__).resolve().parent.parent  # .../repro
    return lint_paths([package_root], rules=rules, policy=policy)
