"""tcblint — AST invariant checker for the TCB reproduction.

The test suite can only probe the repo's cross-cutting invariants
pointwise; this package enforces them *structurally*, at commit time.
Seven per-file rules (AST visitors):

- additive attention masks come from ``repro.core.masks`` (TCB001),
- all randomness threads an explicit ``np.random.Generator`` (TCB002),
- the discrete-event simulator never touches the wall clock (TCB003),
- hot paths keep the canonical float64 convention (TCB004),
- no mutable default arguments (TCB005),
- no stray quadratic ``(…, L, L)`` score-matrix allocations (TCB006),
- serving/engine code never swallows exceptions silently (TCB007),

and one project-wide rule:

- no two call sites consume the same named RNG child stream (TCB011).

Invariants that structure gives are not lint rules.  Ledger
conservation: every queue removal and every engine dispatch goes
through ``repro.serving.lifecycle.Lifecycle`` and
``repro.faults.recovery.serve_slot``.  Clock domains: a scheduler's
decision is timed from outside its body by the one stopwatch in
``repro.scheduling.base``, so no policy holds a wall-clock value to mix
with simulated time.  (TCB008, TCB009, TCB010, TCB012 and TCB013 were
retired once those held; see "Retired rules" in ``docs/statics.md``.)

Run it as ``python -m repro lint`` (or ``make lint``); the tier-1 test
``tests/test_statics_clean.py`` asserts the tree is clean, making every
invariant self-enforcing for future PRs.  See ``docs/statics.md``.
"""

from repro.statics.checks import ALL_RULES
from repro.statics.engine import LintReport, lint_file, lint_package, lint_paths, lint_source
from repro.statics.findings import Finding, Severity
from repro.statics.policy import DEFAULT_POLICY, PathPolicy, RNG_ENTRY_POINTS
from repro.statics.sarif import to_sarif

__all__ = [
    "ALL_RULES",
    "DEFAULT_POLICY",
    "Finding",
    "LintReport",
    "PathPolicy",
    "RNG_ENTRY_POINTS",
    "Severity",
    "lint_file",
    "lint_package",
    "lint_paths",
    "lint_source",
    "to_sarif",
]
