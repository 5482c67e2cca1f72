"""tcblint — AST + dataflow invariant checker for the TCB reproduction.

The test suite can only probe the repo's cross-cutting invariants
pointwise; this package enforces them *structurally*, at commit time.
Syntactic rules (per-node AST visitors):

- additive attention masks come from ``repro.core.masks`` (TCB001),
- all randomness threads an explicit ``np.random.Generator`` (TCB002),
- the discrete-event simulator never reads wall-clock time (TCB003),
- hot paths keep the canonical float64 convention (TCB004),
- no mutable default arguments (TCB005),
- no stray quadratic ``(…, L, L)`` score-matrix allocations (TCB006),
- serving/engine code never swallows exceptions silently (TCB007).

One flow-sensitive rule (CFG + dataflow fixpoint, ``repro.statics.cfg``
/ ``repro.statics.dataflow``) and one project-wide rule:

- sim-clock values never flow into wall-clock APIs or vice versa
  (TCB010),
- no two call sites consume the same named RNG child stream (TCB011).

Ledger conservation is not a lint rule: every queue removal and every
engine dispatch goes through ``repro.serving.lifecycle.Lifecycle`` and
``repro.faults.recovery.serve_slot`` (TCB008, TCB009, TCB012 and TCB013
were retired once that held; see "Retired rules" in ``docs/statics.md``).

Run it as ``python -m repro lint`` (or ``make lint``); the tier-1 test
``tests/test_statics_clean.py`` asserts the tree is clean, making every
invariant self-enforcing for future PRs.  See ``docs/statics.md``.
"""

from repro.statics.baseline import apply_baseline, load_baseline, write_baseline
from repro.statics.cfg import CFG, build_cfg, module_cfgs
from repro.statics.checks import ALL_RULES
from repro.statics.dataflow import run_forward
from repro.statics.engine import LintReport, lint_file, lint_package, lint_paths, lint_source
from repro.statics.findings import Finding, Severity
from repro.statics.policy import DEFAULT_POLICY, PathPolicy, RNG_ENTRY_POINTS
from repro.statics.sarif import to_sarif

__all__ = [
    "ALL_RULES",
    "CFG",
    "DEFAULT_POLICY",
    "Finding",
    "LintReport",
    "PathPolicy",
    "RNG_ENTRY_POINTS",
    "Severity",
    "apply_baseline",
    "build_cfg",
    "lint_file",
    "lint_package",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "module_cfgs",
    "run_forward",
    "to_sarif",
    "write_baseline",
]
