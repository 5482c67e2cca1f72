"""Per-path policy table: where a rule deliberately does not apply.

Inline ``# tcblint: disable=`` comments are for one-off exceptions; the
policy table is for *structural* ones — whole files whose job is to do
the thing a rule forbids.  Every entry must carry a reason, and the
table is part of the review surface: adding a path here is a visible
diff, unlike sprinkling suppressions.

Patterns are :mod:`fnmatch` globs matched against the canonical posix
path of each file (``repro/pkg/module.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Iterable, Mapping

__all__ = [
    "DEFAULT_POLICY",
    "PathPolicy",
    "RNG_ENTRY_POINTS",
    "canonical_path",
    "path_matches",
]


def canonical_path(path: str) -> str:
    """Normalise *path* to ``repro/...`` posix form when possible.

    Absolute paths, ``src/``-prefixed paths and OS separators all lower
    to the same canonical key so policy globs are portable.  Paths
    outside the package (e.g. test fixtures) pass through unchanged.
    """
    posix = str(path).replace("\\", "/")
    parts = [p for p in posix.split("/") if p and p != "."]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    return "/".join(parts)


def path_matches(path: str, pattern: str) -> bool:
    return fnmatch(canonical_path(path), pattern)


@dataclass(frozen=True)
class Exemption:
    pattern: str
    reason: str


@dataclass
class PathPolicy:
    """Maps rule id → path globs where the rule is waived."""

    exemptions: Mapping[str, tuple[Exemption, ...]] = field(default_factory=dict)

    def is_exempt(self, rule: str, path: str) -> bool:
        return any(
            path_matches(path, ex.pattern)
            for ex in self.exemptions.get(rule, ())
        )

    def reasons(self, rule: str) -> Iterable[Exemption]:
        return self.exemptions.get(rule, ())


# Paths where calling ``np.random.default_rng`` is a *documented entry
# point* — the seed-to-Generator boundary of the system.  Everywhere
# else, functions must accept an injected Generator (usually via
# ``repro.rng.ensure_rng``) so callers control replayability end-to-end.
# This list is specific to TCB002's ``default_rng`` sub-check; module-
# level RNG (``np.random.seed`` / ``np.random.rand`` …) is banned with
# no exemption anywhere.
RNG_ENTRY_POINTS: tuple[str, ...] = (
    # The seed→Generator helper itself.
    "repro/rng.py",
    # CLI subcommands are top-level user entry points.
    "repro/cli.py",
    # Model initialisation is keyed by its seed (checkpoint identity).
    "repro/model/params.py",
    # Experiment drivers own figure-level seeds (paper replication).
    "repro/experiments/*.py",
    # Workload generators are *defined* by (distribution, seed).
    "repro/workload/*.py",
)


DEFAULT_POLICY = PathPolicy(
    exemptions={
        # The canonical mask constructors are the one place allowed to
        # lower boolean "allowed" arrays to additive NEG_INF masks.
        "TCB001": (
            Exemption("repro/core/masks.py", "canonical mask constructors (Eq. 5-8)"),
        ),
        # Fig. 16 measures *wall-clock* scheduling overhead: one
        # stopwatch times every scheduler's decision from outside its
        # body.  The simulator clock everywhere else stays event-driven.
        "TCB003": (
            Exemption("repro/scheduling/base.py", "fig16 scheduler-overhead stopwatch"),
        ),
        # Attention/mask modules legitimately build (W, W) score-shaped
        # arrays; slotting exists to eliminate them everywhere else.
        "TCB006": (
            Exemption("repro/core/concat_attention.py", "the attention kernel itself"),
            Exemption("repro/core/masks.py", "mask constructors are (W, W) by design"),
            Exemption("repro/model/attention.py", "multi-head attention kernel"),
        ),
    }
)
