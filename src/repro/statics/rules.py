"""Rule base class and the AST plumbing shared by every check.

A rule sees a :class:`ModuleContext` — parsed tree plus an import-alias
map — and yields :class:`~repro.statics.findings.Finding` objects.  The
alias map lets checks resolve local names back to canonical dotted
paths (``np.random.default_rng`` → ``numpy.random.default_rng`` even
under ``import numpy.random as npr`` or ``from numpy.random import
default_rng as mk``), so rules match *semantics*, not spelling.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.statics.findings import Finding, Severity

__all__ = [
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "build_alias_map",
    "make_context",
    "resolve",
]

# Top-level modules whose imports we track for resolution.
_TRACKED_ROOTS = ("numpy", "time", "datetime", "random")


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one source file."""

    path: str  # canonical posix path
    tree: ast.AST
    source: str
    aliases: dict[str, str] = field(default_factory=dict)


def build_alias_map(tree: ast.AST) -> dict[str, str]:
    """Map local names to canonical dotted paths of tracked modules."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                root = a.name.split(".", 1)[0]
                if root not in _TRACKED_ROOTS:
                    continue
                if a.asname:
                    aliases[a.asname] = a.name
                else:
                    # ``import numpy.random`` binds only the root name.
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            root = node.module.split(".", 1)[0]
            if root not in _TRACKED_ROOTS:
                continue
            for a in node.names:
                if a.name == "*":
                    continue
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def make_context(source: str, path: str) -> ModuleContext:
    tree = ast.parse(source, filename=path)
    return ModuleContext(
        path=path, tree=tree, source=source, aliases=build_alias_map(tree)
    )


def resolve(ctx: ModuleContext, node: ast.AST) -> Optional[str]:
    """Canonical dotted path of a Name/Attribute chain, if trackable.

    Returns e.g. ``"numpy.random.seed"`` or ``None`` when the chain is
    rooted in something we do not track (locals, method calls, …).
    """
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    base = ctx.aliases.get(cur.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


class Rule:
    """Base class: subclasses set the id/title/severity and ``check``."""

    rule_id: str = "TCB000"
    title: str = ""
    severity: Severity = Severity.ERROR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            severity=self.severity,
            message=message,
        )


class ProjectRule(Rule):
    """A rule that needs the whole module set at once.

    Cross-module rules (the RNG stream registry) cannot verify a single
    file in isolation; the engine runs them once per lint invocation
    over every parsed module, after the per-file rules.  Findings still
    land on individual files and pass through that file's
    policy/suppression filters, so ``# tcblint: disable`` works
    unchanged.
    """

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        # Per-file pass: nothing to do; see check_project.
        return iter(())

    def check_project(
        self, contexts: "list[ModuleContext]"
    ) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError
