"""The tcblint rules: seven per-file (TCB001–TCB007), one project-wide
(TCB011).

Each rule protects one cross-cutting invariant of the reproduction;
``docs/statics.md`` ties every rule to the paper equation or
reproducibility requirement behind it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.statics.findings import Finding, Severity
from repro.statics.policy import RNG_ENTRY_POINTS, path_matches
from repro.statics.rules import ModuleContext, ProjectRule, Rule, resolve

__all__ = ["ALL_RULES", "RULES_BY_ID"]


def _is_neg_inf_like(node: ast.AST) -> bool:
    """NEG_INF, <anything>.NEG_INF, or a finite constant ≤ -1e8 / ≥ 1e8."""
    if isinstance(node, ast.Name) and node.id == "NEG_INF":
        return True
    if isinstance(node, ast.Attribute) and node.attr == "NEG_INF":
        return True
    value: Optional[float] = None
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        value = float(node.value)
    elif (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
    ):
        value = -float(node.operand.value)
    if value is None:
        return False
    # Exclude ±inf: sampling-style logit truncation with -np.inf is not
    # an additive attention mask.
    return abs(value) >= 1e8 and value == value and abs(value) != float("inf")


class MaskDiscipline(Rule):
    """TCB001 — additive masks come from ``repro.core.masks`` (Eq. 5–8)."""

    rule_id = "TCB001"
    title = "ad-hoc additive attention mask"
    severity = Severity.ERROR

    _BUILDERS = ("numpy.where", "numpy.full", "numpy.full_like")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve(ctx, node.func)
            if target not in self._BUILDERS:
                continue
            if any(_is_neg_inf_like(a) for a in node.args) or any(
                _is_neg_inf_like(kw.value) for kw in node.keywords
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{target.split('.')[-1]}(..., NEG_INF) builds an additive "
                    "mask ad hoc; use the canonical constructors in "
                    "repro.core.masks (block_diagonal_mask, causal_block_mask, "
                    "cross_attention_mask, ...) so Eq. 5-8 semantics stay in "
                    "one audited place",
                )


class GlobalRngBan(Rule):
    """TCB002 — all randomness threads an explicit ``np.random.Generator``."""

    rule_id = "TCB002"
    title = "global / untracked RNG"
    severity = Severity.ERROR

    # numpy.random attributes that are types, fine to reference anywhere
    # (annotations, isinstance checks, Generator construction from bits).
    _TYPE_NAMES = frozenset(
        {
            "Generator",
            "BitGenerator",
            "SeedSequence",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "MT19937",
            "SFC64",
        }
    )
    _STDLIB_OK = frozenset({"Random", "SystemRandom", "getstate", "setstate"})

    def _flag(self, ctx: ModuleContext, node: ast.AST, chain: str):
        if chain == "numpy.random.seed":
            return self.finding(
                ctx,
                node,
                "np.random.seed mutates the process-global RNG; every figure "
                "must be replayable from an explicit np.random.Generator",
            )
        if chain.startswith("numpy.random."):
            head = chain[len("numpy.random."):].split(".", 1)[0]
            if head in self._TYPE_NAMES:
                return None
            if head == "default_rng":
                if any(path_matches(ctx.path, p) for p in RNG_ENTRY_POINTS):
                    return None
                return self.finding(
                    ctx,
                    node,
                    "np.random.default_rng outside the documented entry points "
                    "(see repro.statics.policy.RNG_ENTRY_POINTS); accept an "
                    "injected np.random.Generator instead "
                    "(repro.rng.ensure_rng helps)",
                )
            return self.finding(
                ctx,
                node,
                f"np.random.{head} draws from the process-global RNG; thread "
                "an explicit np.random.Generator through instead",
            )
        if chain.startswith("random."):
            head = chain[len("random."):].split(".", 1)[0]
            if head in self._STDLIB_OK:
                return None
            return self.finding(
                ctx,
                node,
                f"stdlib random.{head} is process-global and unseeded here; "
                "use an injected np.random.Generator",
            )
        return None

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            chain = resolve(ctx, node)
            if chain is None:
                continue
            # Only report the *full* chain (an Attribute that is itself
            # the value of a longer Attribute is skipped via parents not
            # being trackable — ast.walk gives us every sub-chain, but
            # sub-chains resolve to prefixes that never match a banned
            # leaf, so no dedup is needed).
            f = self._flag(ctx, node, chain)
            if f is not None:
                yield f


class SimTimePurity(Rule):
    """TCB003 — no wall clock in the discrete-event world."""

    rule_id = "TCB003"
    title = "wall clock in simulator code"
    severity = Severity.ERROR

    _SCOPE = (
        "repro/serving/",
        "repro/scheduling/",
        "repro/obs/",
        "repro/overload/",
        "repro/durability/",
        "repro/cluster_health/",
        "repro/tenancy/",
        "repro/faults/",
    )
    _BANNED = frozenset(
        {
            # Not a read, but the one way a simulated ``now`` can reach
            # the wall clock without one.
            "time.sleep",
            "time.time",
            "time.time_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.process_time",
            "time.process_time_ns",
            "time.thread_time",
            "time.thread_time_ns",
            "time.clock",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.path.startswith(self._SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            chain = resolve(ctx, node)
            if chain in self._BANNED:
                yield self.finding(
                    ctx,
                    node,
                    f"{chain} uses the wall clock inside the discrete-event "
                    "simulator; advance simulated time explicitly (the only "
                    "sanctioned wall-clock paths are the fig16 stopwatch in "
                    "repro/scheduling/base.py and TCBServer's real clock)",
                )


class DtypeDiscipline(Rule):
    """TCB004 — hot paths keep the canonical float64 convention."""

    rule_id = "TCB004"
    title = "non-canonical float dtype in hot path"
    severity = Severity.WARNING

    _SCOPE = ("repro/core/", "repro/model/", "repro/engine/")
    _BANNED_ATTRS = frozenset(
        {"numpy.float32", "numpy.float16", "numpy.single", "numpy.half"}
    )
    _BANNED_STRINGS = frozenset({"float32", "float16", "single", "half", "f4", "f2"})

    def _banned_string(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value in self._BANNED_STRINGS
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.path.startswith(self._SCOPE):
            return
        msg = (
            "uses a reduced-precision float dtype; core/model/engine hot "
            "paths follow the repo-wide float64 convention so masks "
            "underflow exactly and goldens stay bit-stable"
        )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                if resolve(ctx, node) in self._BANNED_ATTRS:
                    yield self.finding(ctx, node, f"{ast.unparse(node)} {msg}")
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "dtype" and self._banned_string(kw.value):
                        yield self.finding(ctx, node, f"dtype={kw.value.value!r} {msg}")
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype"
                    and node.args
                    and self._banned_string(node.args[0])
                ):
                    yield self.finding(
                        ctx, node, f"astype({node.args[0].value!r}) {msg}"
                    )


class MutableDefaults(Rule):
    """TCB005 — no mutable default arguments."""

    rule_id = "TCB005"
    title = "mutable default argument"
    severity = Severity.WARNING

    _FACTORY_NAMES = frozenset(
        {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
         "deque", "Counter"}
    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._FACTORY_NAMES
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            name = getattr(node, "name", "<lambda>")
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for d in defaults:
                if self._is_mutable(d):
                    yield self.finding(
                        ctx,
                        d,
                        f"mutable default in {name}(): evaluated once at def "
                        "time and shared across calls; default to None (or a "
                        "dataclass field(default_factory=...))",
                    )


class QuadraticAllocation(Rule):
    """TCB006 — no stray ``(…, L, L)`` score-matrix allocations."""

    rule_id = "TCB006"
    title = "quadratic score-matrix allocation"
    severity = Severity.WARNING

    _ALLOCATORS = ("numpy.zeros", "numpy.empty", "numpy.ones", "numpy.full")

    def _shape_arg(self, node: ast.Call) -> Optional[ast.AST]:
        for kw in node.keywords:
            if kw.arg == "shape":
                return kw.value
        return node.args[0] if node.args else None

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve(ctx, node.func)
            if target not in self._ALLOCATORS:
                continue
            shape = self._shape_arg(node)
            if not isinstance(shape, ast.Tuple) or len(shape.elts) < 2:
                continue
            a, b = shape.elts[-2], shape.elts[-1]
            symbolic = isinstance(a, (ast.Name, ast.Attribute)) and isinstance(
                b, (ast.Name, ast.Attribute)
            )
            if symbolic and ast.dump(a) == ast.dump(b):
                yield self.finding(
                    ctx,
                    node,
                    f"{target.split('.')[-1]} with a (..., "
                    f"{ast.unparse(a)}, {ast.unparse(b)}) score-matrix shape "
                    "outside the attention modules; §4.2 slotting exists to "
                    "eliminate quadratic buffers — build masks via "
                    "repro.core.masks or restructure per-slot",
                )


class SwallowedExceptions(Rule):
    """TCB007 — serving/engine code never swallows failures silently."""

    rule_id = "TCB007"
    title = "bare or silently swallowed exception"
    severity = Severity.ERROR

    # Fault tolerance (docs/faults.md) rests on failures surfacing as
    # typed outcomes; a swallowed exception in these trees silently
    # converts a fault into a success and breaks the conservation
    # invariant.
    _SCOPE = ("repro/serving/", "repro/engine/", "repro/faults/")

    @staticmethod
    def _is_silent(handler: ast.ExceptHandler) -> bool:
        """True when the handler body does nothing but pass/docstring."""
        return all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
            )
            for stmt in handler.body
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.path.startswith(self._SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare `except:` catches everything (including "
                    "KeyboardInterrupt) and hides faults the serving loops "
                    "must see; catch the specific exception (BatchFailure, "
                    "EngineDown, ...) instead",
                )
            elif self._is_silent(node):
                caught = ast.unparse(node.type)
                yield self.finding(
                    ctx,
                    node,
                    f"`except {caught}: pass` silently swallows the failure; "
                    "serving/engine code must surface faults as typed "
                    "outcomes (re-raise, requeue, or record them) so the "
                    "conservation invariant can hold",
                )


@dataclass(frozen=True)
class _StreamSite:
    path: str
    line: int
    col: int
    fingerprint: tuple[str, ...]


class RngStreamAliasing(ProjectRule):
    """TCB011 — no two call sites key the same SeedSequence stream.

    Two call sites keying ``np.random.SeedSequence`` tuples with the
    same structural fingerprint consume the same child stream and
    produce correlated draws; every stream key must carry a distinct
    domain constant.
    """

    rule_id = "TCB011"
    title = "aliased RNG stream key"
    severity = Severity.ERROR

    _SCOPE = ("repro/",)

    @staticmethod
    def _module_int_consts(tree: ast.AST) -> dict[str, int]:
        out: dict[str, int] = {}
        for stmt in getattr(tree, "body", []):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, int)
                and not isinstance(value.value, bool)
            ):
                out[target.id] = value.value
        return out

    def _element_fp(self, e: ast.AST, consts: dict[str, int]) -> str:
        if isinstance(e, ast.Constant) and isinstance(e.value, (int, str)):
            return repr(e.value)
        if isinstance(e, ast.Name) and e.id in consts:
            return repr(consts[e.id])
        return "*"

    def check_project(
        self, contexts: Sequence[ModuleContext]
    ) -> Iterator[Finding]:
        sites: list[_StreamSite] = []
        for ctx in contexts:
            if not ctx.path.startswith(self._SCOPE):
                continue
            consts = self._module_int_consts(ctx.tree)
            for n in ast.walk(ctx.tree):
                if not isinstance(n, ast.Call):
                    continue
                if resolve(ctx, n.func) != "numpy.random.SeedSequence":
                    continue
                if not n.args or not isinstance(n.args[0], ast.Tuple):
                    continue
                fp = tuple(
                    self._element_fp(e, consts) for e in n.args[0].elts
                )
                sites.append(
                    _StreamSite(ctx.path, n.lineno, n.col_offset, fp)
                )
        groups: dict[tuple[str, ...], list[_StreamSite]] = {}
        for s in sites:
            groups.setdefault(s.fingerprint, []).append(s)
        for fp, members in sorted(groups.items()):
            if len(members) < 2:
                continue
            for site in members:
                others = ", ".join(
                    f"{m.path}:{m.line}" for m in members if m is not site
                )
                fp_str = "(" + ", ".join(fp) + ")"
                yield Finding(
                    rule=self.rule_id,
                    path=site.path,
                    line=site.line,
                    col=site.col,
                    severity=self.severity,
                    message=(
                        f"SeedSequence stream key {fp_str} aliases the "
                        f"stream consumed at {others}; correlated draws "
                        "break replay independence — add a distinct integer "
                        "stream-domain constant to the key tuple"
                    ),
                )


ALL_RULES: tuple[Rule, ...] = (
    MaskDiscipline(),
    GlobalRngBan(),
    SimTimePurity(),
    DtypeDiscipline(),
    MutableDefaults(),
    QuadraticAllocation(),
    SwallowedExceptions(),
    RngStreamAliasing(),
)

RULES_BY_ID: dict[str, Rule] = {r.rule_id: r for r in ALL_RULES}
