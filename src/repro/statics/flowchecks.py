"""The flow-sensitive and project-wide tcblint rules (TCB010, TCB011).

TCB010 is a per-file dataflow rule over the CFGs built by
:mod:`repro.statics.cfg`; TCB011 is a *project* rule that sees every
module of the lint run at once.  ``docs/statics.md`` has the
rule-authoring guide; the short version of each policy:

- **TCB010 sim-time taint** — values read from wall-clock APIs must not
  mix with simulated-clock values (``now`` parameters) in arithmetic,
  nor flow into sim-time APIs (``queue.expire(...)``), nor vice versa
  into wall-clock APIs (``time.sleep``).  This covers the fig16
  scheduler files that TCB003 deliberately waives: they may *read* the
  wall clock, but the reading must never leak into simulated time.
- **TCB011 RNG-stream aliasing** — two call sites keying
  ``np.random.SeedSequence`` tuples with the same structural
  fingerprint consume the same child stream and produce correlated
  draws; every stream key must carry a distinct domain constant.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.statics.cfg import CFG, CFGNode, module_cfgs
from repro.statics.dataflow import run_forward
from repro.statics.findings import Finding, Severity
from repro.statics.rules import ModuleContext, ProjectRule, Rule, resolve

__all__ = ["FLOW_RULES", "RngStreamAliasing", "SimTimeTaint"]


def _expr_key(node: ast.AST) -> Optional[str]:
    """Stable key for a Name/Attribute chain (``packing.packed``)."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def _own_exprs(node: CFGNode) -> list[ast.AST]:
    """The expressions a CFG node *itself* evaluates.

    Compound statements appear as ``test``/``with``/``finally`` nodes
    whose ``stmt`` is the whole AST subtree; only the header expression
    belongs to the node — the body statements are separate CFG nodes.
    """
    stmt = node.stmt
    if stmt is None or node.label in ("def", "except", "finally"):
        return []
    if node.label == "test":
        if isinstance(stmt, (ast.If, ast.While)):
            return [stmt.test]
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter]
        if isinstance(stmt, ast.Match):
            return [stmt.subject]
        return []
    if node.label == "with":
        return [item.context_expr for item in stmt.items]  # type: ignore[attr-defined]
    return [stmt]


def _own_stmt_walk(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        n = stack.pop()
        yield n
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(n))


# ---------------------------------------------------------------------- #
# TCB010 — sim-time taint
# ---------------------------------------------------------------------- #


class SimTimeTaint(Rule):
    """TCB010 — wall-clock and simulated-time values never mix."""

    rule_id = "TCB010"
    title = "wall-clock value mixed with simulated time"
    severity = Severity.ERROR

    _SCOPE = ("repro/serving/", "repro/scheduling/", "repro/obs/", "repro/overload/")
    # Wall-clock sources (same set TCB003 bans syntactically; here they
    # are *sources of taint*, so the fig16 files TCB003 waives are still
    # proven not to leak readings into simulated time).
    _WALL_SOURCES = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.process_time",
            "time.process_time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.date.today",
        }
    )
    # Parameters that carry the simulated clock by convention.
    _SIM_PARAMS = frozenset({"now", "sim_now"})
    # Sim-time APIs a wall value must never reach (first positional arg
    # is a simulated timestamp).
    _SIM_SINKS = frozenset({"expire", "waiting", "queue_delay", "slack"})
    # Wall-clock APIs a simulated value must never reach.
    _WALL_SINKS = frozenset(
        {
            "time.sleep",
            "time.strftime",
            "time.localtime",
            "time.gmtime",
            "datetime.datetime.fromtimestamp",
            "datetime.date.fromtimestamp",
        }
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.path.startswith(self._SCOPE):
            return
        for qual, fn, cfg in module_cfgs(ctx.tree):
            yield from self._check_function(ctx, qual, fn, cfg)

    # -- domain evaluation ---------------------------------------------- #

    def _domains(
        self, ctx: ModuleContext, state: frozenset, expr: ast.AST
    ) -> frozenset:
        """The clock domains an expression *may* carry.

        A variable merged from a wall branch and a sim branch carries
        both; sinks treat that as a may-flow (flag it), while the
        mix/compare checks require two *definite* different domains to
        avoid phi-node double-reporting.
        """
        key = _expr_key(expr)
        if key is not None:
            return frozenset(d for k, d in state if k == key)
        if isinstance(expr, ast.Call):
            q = resolve(ctx, expr.func)
            if q in self._WALL_SOURCES:
                return frozenset({"wall"})
            if isinstance(expr.func, ast.Name) and expr.func.id in ("min", "max"):
                out: frozenset = frozenset()
                for a in expr.args:
                    out |= self._domains(ctx, state, a)
                return out
            return frozenset()
        if isinstance(expr, ast.BinOp):
            return self._domains(ctx, state, expr.left) | self._domains(
                ctx, state, expr.right
            )
        if isinstance(expr, ast.UnaryOp):
            return self._domains(ctx, state, expr.operand)
        if isinstance(expr, ast.IfExp):
            return self._domains(ctx, state, expr.body) | self._domains(
                ctx, state, expr.orelse
            )
        return frozenset()

    def _definite(
        self, ctx: ModuleContext, state: frozenset, expr: ast.AST
    ) -> Optional[str]:
        doms = self._domains(ctx, state, expr)
        return next(iter(doms)) if len(doms) == 1 else None

    # -- dataflow ------------------------------------------------------- #

    def _initial(self, fn: ast.AST) -> frozenset:
        args = getattr(fn, "args", None)
        if args is None:
            return frozenset()
        names = [
            a.arg
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if a.arg in self._SIM_PARAMS
        ]
        return frozenset((n, "sim") for n in names)

    def _transfer(self, ctx: ModuleContext):
        def transfer(node: CFGNode, state: frozenset) -> frozenset:
            stmt = node.stmt
            exprs = _own_exprs(node)
            if not exprs:
                return state
            target: Optional[str] = None
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = _expr_key(stmt.targets[0])
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target = _expr_key(stmt.target)
                value = stmt.value
            elif isinstance(stmt, ast.AugAssign):
                target = _expr_key(stmt.target)
                value = stmt.value
            if target is None:
                return state
            doms = (
                self._domains(ctx, state, value)
                if value is not None
                else frozenset()
            )
            if isinstance(stmt, ast.AugAssign) and not doms:
                # x += dt keeps x's old domain.
                return state
            s = {t for t in state if t[0] != target}
            s |= {(target, d) for d in doms}
            return frozenset(s)

        return transfer

    def _check_function(
        self, ctx: ModuleContext, qual: str, fn: ast.AST, cfg: CFG
    ) -> Iterator[Finding]:
        # Cheap pre-filter: functions that never touch a wall source or
        # wall sink cannot violate the rule.
        touches = False
        for n in _own_stmt_walk(fn):
            if isinstance(n, (ast.Attribute, ast.Name)):
                q = resolve(ctx, n)
                if q in self._WALL_SOURCES or q in self._WALL_SINKS:
                    touches = True
                    break
        if not touches:
            return
        in_state, _ = run_forward(
            cfg,
            init=self._initial(fn),
            bottom=frozenset(),
            transfer=self._transfer(ctx),
            join=lambda a, b: a | b,
        )
        seen: set[tuple[int, int, str]] = set()
        for node in cfg.nodes:
            state = in_state[node.idx]
            for e in _own_exprs(node):
                for f in self._scan_expr(ctx, qual, state, e):
                    fp = (f.line, f.col, f.message)
                    if fp not in seen:
                        seen.add(fp)
                        yield f

    def _scan_expr(
        self, ctx: ModuleContext, qual: str, state: frozenset, expr: ast.AST
    ) -> Iterator[Finding]:
        for n in ast.walk(expr):
            if isinstance(n, ast.BinOp):
                left = self._definite(ctx, state, n.left)
                right = self._definite(ctx, state, n.right)
                if left and right and left != right:
                    yield self.finding(
                        ctx,
                        n,
                        f"wall-clock and simulated-time values mixed in one "
                        f"expression in {qual}(); keep the domains separate "
                        "(wall readings may only measure overhead, never "
                        "advance or compare simulated time)",
                    )
            elif isinstance(n, ast.Compare):
                doms = [self._definite(ctx, state, n.left)] + [
                    self._definite(ctx, state, c) for c in n.comparators
                ]
                known = {d for d in doms if d}
                if len(known) > 1:
                    yield self.finding(
                        ctx,
                        n,
                        f"comparison between wall-clock and simulated-time "
                        f"values in {qual}(); the two clocks are not on the "
                        "same axis",
                    )
            elif isinstance(n, ast.Call):
                q = resolve(ctx, n.func)
                if q in self._WALL_SINKS:
                    for a in n.args:
                        if "sim" in self._domains(ctx, state, a):
                            yield self.finding(
                                ctx,
                                n,
                                f"simulated-time value flows into wall-clock "
                                f"API {q} in {qual}()",
                            )
                elif (
                    isinstance(n.func, ast.Attribute)
                    and n.func.attr in self._SIM_SINKS
                ):
                    for a in n.args:
                        if "wall" in self._domains(ctx, state, a):
                            yield self.finding(
                                ctx,
                                n,
                                f"wall-clock value flows into sim-time API "
                                f".{n.func.attr}() in {qual}(); the simulator "
                                "clock must advance only through simulated "
                                "events",
                            )


# ---------------------------------------------------------------------- #
# TCB011 — RNG-stream aliasing (project rule)
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class _StreamSite:
    path: str
    line: int
    col: int
    fingerprint: tuple[str, ...]


class RngStreamAliasing(ProjectRule):
    """TCB011 — no two call sites key the same SeedSequence stream."""

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


FLOW_RULES: tuple[Rule, ...] = (SimTimeTaint(), RngStreamAliasing())
