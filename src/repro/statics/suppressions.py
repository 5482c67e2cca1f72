"""Inline ``# tcblint: disable=RULE`` suppression comments.

Two granularities:

- ``# tcblint: disable=TCB003`` on (or at the end of) a line suppresses
  the named rules for **that line only**;
- ``# tcblint: disable-file=TCB003`` anywhere in the file suppresses
  the named rules for the **whole file**.

Multiple rules may be given comma-separated
(``# tcblint: disable=TCB001,TCB005``); ``all`` matches every rule.
Comments are discovered with :mod:`tokenize`, so strings that merely
*look* like directives do not count, and directives may share a line
with code.

Each ``(rule, line)`` directive records whether it ever actually
suppressed a finding; :meth:`SuppressionMap.unused` reports the stale
ones, and ``python -m repro lint`` fails on a directive that outlived
the code it excused.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = ["Directive", "SuppressionMap", "collect_suppressions"]

_DIRECTIVE = re.compile(
    r"#\s*tcblint:\s*(?P<kind>disable(?:-file)?)\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+)"
)


@dataclass(frozen=True)
class Directive:
    """One ``(rule, line)`` grain of a suppression comment."""

    rule: str  # normalised rule id, or "all"
    line: int  # the directive's own source line
    file_wide: bool


@dataclass
class SuppressionMap:
    """Which rules are silenced where, for one source file."""

    by_line: dict[int, set[str]] = field(default_factory=dict)
    file_wide: set[str] = field(default_factory=set)
    # Count of directives that parsed, for diagnostics.
    num_directives: int = 0
    # Every (rule, line) grain, and the ones that suppressed something.
    directives: list[Directive] = field(default_factory=list)
    used: set[Directive] = field(default_factory=set)
    # rule -> directive line, for file-wide grains.
    _file_lines: dict[str, int] = field(default_factory=dict)

    def is_suppressed(self, rule: str, line: int) -> bool:
        hit = False
        for fw_rule in ("all", rule):
            if fw_rule in self.file_wide:
                self.used.add(
                    Directive(fw_rule, self._file_lines.get(fw_rule, 0), True)
                )
                hit = True
        rules = self.by_line.get(line)
        if rules is not None:
            for lr in ("all", rule):
                if lr in rules:
                    self.used.add(Directive(lr, line, False))
                    hit = True
        return hit

    def unused(self, ran_rules: Optional[set[str]] = None) -> Iterator[Directive]:
        """Directives that never suppressed anything this run.

        ``ran_rules`` limits the report to rules that were actually
        executed — a partial ``--rules`` run cannot judge directives for
        the rules it skipped (``all`` grains are always judged).
        """
        for d in self.directives:
            if d in self.used:
                continue
            if ran_rules is not None and d.rule != "all" and d.rule not in ran_rules:
                continue
            yield d


def _parse_rules(raw: str) -> set[str]:
    return {r.strip().upper() if r.strip() != "all" else "all"
            for r in raw.split(",") if r.strip()}


def collect_suppressions(source: str) -> SuppressionMap:
    """Scan *source* for tcblint directives (tolerant of bad syntax)."""
    smap = SuppressionMap()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _DIRECTIVE.search(tok.string)
            if not m:
                continue
            rules = _parse_rules(m.group("rules"))
            if not rules:
                continue
            smap.num_directives += 1
            line = tok.start[0]
            if m.group("kind") == "disable-file":
                smap.file_wide |= rules
                for r in rules:
                    smap._file_lines.setdefault(r, line)
                    smap.directives.append(Directive(r, line, True))
            else:
                smap.by_line.setdefault(line, set()).update(rules)
                for r in rules:
                    smap.directives.append(Directive(r, line, False))
    except tokenize.TokenError:  # partial files: honor what we saw
        pass
    return smap
