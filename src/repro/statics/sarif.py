"""SARIF 2.1.0 export for tcblint reports.

SARIF (Static Analysis Results Interchange Format) is what code-scanning
UIs ingest — GitHub's security tab, VS Code's SARIF viewer, etc.  This
module emits the minimal valid subset: one run, a ``tool.driver`` with
the rule catalog, one ``result`` per finding, and one tool notification
per parse error and per stale inline directive (so neither a broken
file nor an outlived suppression can read as a green run).

The export is intentionally lossless with respect to exit codes: a
report is SARIF-clean iff ``LintReport.clean``, so ``--format sarif``
exits exactly like ``--format text``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.statics.engine import LintReport
from repro.statics.findings import Severity
from repro.statics.rules import Rule

__all__ = ["SARIF_SCHEMA", "SARIF_VERSION", "to_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def _rule_descriptor(rule: Rule) -> dict[str, Any]:
    return {
        "id": rule.rule_id,
        "name": type(rule).__name__,
        "shortDescription": {"text": rule.title},
        "defaultConfiguration": {
            "level": _LEVELS.get(rule.severity, "note")
        },
    }


def to_sarif(report: LintReport, rules: Sequence[Rule]) -> dict[str, Any]:
    """Render *report* as a SARIF 2.1.0 log object (JSON-serialisable)."""
    results: list[dict[str, Any]] = []
    for f in report.findings:
        results.append(
            {
                "ruleId": f.rule,
                "level": _LEVELS.get(f.severity, "note"),
                "message": {"text": f.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": f.path},
                            "region": {
                                "startLine": f.line,
                                # SARIF columns are 1-based; ast's are 0-based.
                                "startColumn": f.col + 1,
                            },
                        }
                    }
                ],
            }
        )
    # Parse errors become tool-level notifications so a broken file is
    # visible in the scanning UI, not silently dropped.
    notifications = [
        {"level": "error", "message": {"text": err}}
        for err in report.parse_errors
    ] + [
        {"level": "warning", "message": {"text": line}}
        for line in report.stale_lines()
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "tcblint",
                        "informationUri": "docs/statics.md",
                        "rules": [_rule_descriptor(r) for r in rules],
                    }
                },
                "results": results,
                "invocations": [
                    {
                        "executionSuccessful": not report.parse_errors,
                        "toolExecutionNotifications": notifications,
                    }
                ],
            }
        ],
    }
