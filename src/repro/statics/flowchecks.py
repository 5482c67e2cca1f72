"""The flow-sensitive and project-wide tcblint rules (TCB009–TCB012).

TCB009 and TCB010 are per-file dataflow rules over the CFGs built by
:mod:`repro.statics.cfg`; TCB011 and TCB012 are *project* rules that see
every module of the lint run at once (TCB012 through the call graph in
:mod:`repro.statics.callgraph`).  ``docs/statics.md`` has the
rule-authoring guide; the short version of each policy:

- **TCB009 ledger escape** — a batch removed from the wait queue via
  ``.take()`` / ``.remove_served()`` must, on *every* normal path to
  function exit, land in a ledger terminal
  (``metrics.{served,rejected,expired,abandoned}.extend/append``), be
  re-enqueued (``requeue``/``abandon``), or be handed off element-wise
  into a tracked container.  This is the dataflow upgrade of the
  syntactic TCB008: TCB008 bans *unsanctioned call sites*, TCB009
  proves the sanctioned ones actually ledger on every branch.
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
- **TCB012 typed-fault escape** — a raised ``BatchFailure`` /
  ``EngineDown`` / ``BackpressureError`` must have a *ledgered* handler
  (one that uses the bound exception or re-raises) somewhere on the
  call graph, or be a documented API escape (named in the raising
  function's / class's / module's docstring).  Handlers that catch a
  typed fault and ignore its payload are flagged directly — the
  ``.requests`` they drop silently break the conservation invariant.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.statics.callgraph import CallGraph, build_call_graph
from repro.statics.cfg import CFG, CFGNode, Edge, build_cfg, module_cfgs
from repro.statics.dataflow import run_forward
from repro.statics.findings import Finding, Severity
from repro.statics.rules import ModuleContext, ProjectRule, Rule, resolve

__all__ = [
    "FLOW_RULES",
    "LedgerEscape",
    "RngStreamAliasing",
    "SimTimeTaint",
    "TypedFaultEscape",
]


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
# TCB009 — ledger escape
# ---------------------------------------------------------------------- #

# A taint item: requests removed from the queue that still owe a ledger
# entry.  ``key`` is the expression the batch is reachable through.
_Taint = tuple[str, int, int, str]  # (key, line, col, removal method)


class LedgerEscape(Rule):
    """TCB009 — every queue removal reaches a ledger terminal on all paths."""

    rule_id = "TCB009"
    title = "queue removal may escape the conservation ledger"
    severity = Severity.ERROR

    _SCOPE = (
        "repro/serving/",
        "repro/overload/",
        "repro/faults/",
        "repro/scheduling/",
    )
    # Queue methods whose result/argument owes a terminal ledger entry.
    _REMOVALS = frozenset({"take", "remove_served"})
    # metrics.<terminal>.extend(...) discharges the obligation.
    _TERMINALS = frozenset({"served", "rejected", "expired", "abandoned"})
    # Re-enqueue / container handoff methods that transfer ownership.
    _HANDOFFS = frozenset({"extend", "append", "add", "put", "requeue", "abandon"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.path.startswith(self._SCOPE):
            return
        for qual, fn, cfg in module_cfgs(ctx.tree):
            yield from self._check_function(ctx, qual, fn, cfg)

    # -- helpers -------------------------------------------------------- #

    def _removal_call(self, call: ast.Call) -> Optional[str]:
        f = call.func
        if not isinstance(f, ast.Attribute) or f.attr not in self._REMOVALS:
            return None
        # The queue's own internals (``self.take``) do their own
        # bookkeeping; only *callers* owe a ledger entry.
        if isinstance(f.value, ast.Name) and f.value.id == "self":
            return None
        return f.attr

    def _kill_keys(self, expr: ast.AST) -> set[str]:
        """Argument keys discharged by ledger/handoff calls in *expr*."""
        killed: set[str] = set()
        for n in ast.walk(expr):
            if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)):
                continue
            meth = n.func.attr
            if meth not in self._HANDOFFS:
                continue
            for a in n.args:
                k = _expr_key(a)
                if k is not None:
                    killed.add(k)
        return killed

    @staticmethod
    def _loop_hands_off(stmt: ast.For | ast.AsyncFor) -> bool:
        """Does the loop pass its target variable into any call?"""
        if not isinstance(stmt.target, ast.Name):
            return False
        var = stmt.target.id
        for body_stmt in stmt.body:
            for n in ast.walk(body_stmt):
                if isinstance(n, ast.Call):
                    for a in [*n.args, *[kw.value for kw in n.keywords]]:
                        for sub in ast.walk(a):
                            if isinstance(sub, ast.Name) and sub.id == var:
                                return True
        return False

    # -- dataflow ------------------------------------------------------- #

    def _transfer(self, node: CFGNode, state: frozenset) -> frozenset:
        exprs = _own_exprs(node)
        if not exprs:
            return state
        s = set(state)
        stmt = node.stmt

        # Per-element handoff: `for r in batch: container.append(f(r))`.
        if (
            node.label == "test"
            and isinstance(stmt, (ast.For, ast.AsyncFor))
            and self._loop_hands_off(stmt)
        ):
            k = _expr_key(stmt.iter)
            if k is not None:
                s = {t for t in s if t[0] != k}

        # Ledger terminals and handoffs discharge by argument key.
        killed = set()
        for e in exprs:
            killed |= self._kill_keys(e)
        if killed:
            s = {t for t in s if t[0] not in killed}

        # Assignments: rename aliases, clobber rebound names, gen takes.
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
            stmt.targets[0], ast.Name
        ):
            target = stmt.targets[0].id
            src_key = _expr_key(stmt.value)
            moved = [t for t in s if src_key is not None and t[0] == src_key]
            s = {t for t in s if t[0] != target and t not in moved}
            s |= {(target, t[1], t[2], t[3]) for t in moved}
            if isinstance(stmt.value, ast.Call) and self._removal_call(stmt.value):
                call = stmt.value
                s.add(
                    (target, call.lineno, call.col_offset, self._removal_call(call))
                )

        # remove_served(batch): the *argument* owes the ledger entry.
        for e in exprs:
            for n in ast.walk(e):
                if (
                    isinstance(n, ast.Call)
                    and self._removal_call(n) == "remove_served"
                    and n.args
                ):
                    k = _expr_key(n.args[0])
                    if k is not None:
                        s.add((k, n.lineno, n.col_offset, "remove_served"))
        return frozenset(s)

    @staticmethod
    def _edge_refine(state: frozenset, src: CFGNode, edge: Edge) -> frozenset:
        """Branch-condition refinement: an empty batch owes nothing.

        On the false edge of ``if batch:`` (or the true edge of
        ``if not batch:``) the batch is empty, so its obligation dies.
        """
        if src.label != "test" or not isinstance(src.stmt, (ast.If, ast.While)):
            return state
        test = src.stmt.test
        key: Optional[str] = None
        if edge.kind == "false":
            key = _expr_key(test)
        elif (
            edge.kind == "true"
            and isinstance(test, ast.UnaryOp)
            and isinstance(test.op, ast.Not)
        ):
            key = _expr_key(test.operand)
        if key is None:
            return state
        return frozenset(t for t in state if t[0] != key)

    def _check_function(
        self, ctx: ModuleContext, qual: str, fn: ast.AST, cfg: CFG
    ) -> Iterator[Finding]:
        # Cheap pre-filter: no removal calls, no analysis.
        has_removal = any(
            isinstance(n, ast.Call) and self._removal_call(n)
            for n in _own_stmt_walk(fn)
        )
        if has_removal:
            yield from self._check_discarded_takes(ctx, qual, fn)
            _, out = run_forward(
                cfg,
                init=frozenset(),
                bottom=frozenset(),
                transfer=self._transfer,
                join=lambda a, b: a | b,
                edge_refine=self._edge_refine,
            )
            live: set[_Taint] = set()
            for e in cfg.nodes[CFG.EXIT].preds:
                if e.kind in ("raise", "exc"):
                    continue
                live |= self._edge_refine(out[e.src], cfg.nodes[e.src], e)
            for key, line, col, meth in sorted(live):
                yield Finding(
                    rule=self.rule_id,
                    path=ctx.path,
                    line=line,
                    col=col,
                    severity=self.severity,
                    message=(
                        f"requests removed via .{meth}() may reach the end of "
                        f"{qual}() without a ledger terminal on some path; "
                        "every removal must land in metrics.served/rejected/"
                        "expired/abandoned, be re-enqueued (requeue/abandon), "
                        "or be handed off element-wise — otherwise the "
                        "conservation invariant silently loses requests"
                    ),
                )

    def _check_discarded_takes(
        self, ctx: ModuleContext, qual: str, fn: ast.AST
    ) -> Iterator[Finding]:
        """A ``.take()`` whose result is not even bound is a sure leak."""
        parents: dict[ast.AST, ast.AST] = {}
        for parent in _own_stmt_walk(fn):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        for n in _own_stmt_walk(fn):
            if not (isinstance(n, ast.Call) and self._removal_call(n) == "take"):
                continue
            p = parents.get(n)
            bound = (
                isinstance(p, ast.Assign)
                and len(p.targets) == 1
                and isinstance(p.targets[0], ast.Name)
            )
            handed_off = (
                isinstance(p, ast.Call)
                and isinstance(p.func, ast.Attribute)
                and p.func.attr in self._HANDOFFS
                and n in p.args
            )
            if not bound and not handed_off:
                yield Finding(
                    rule=self.rule_id,
                    path=ctx.path,
                    line=n.lineno,
                    col=n.col_offset,
                    severity=self.severity,
                    message=(
                        f"result of .take() is discarded in {qual}(); the "
                        "removed requests never reach any ledger terminal"
                    ),
                )


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


# ---------------------------------------------------------------------- #
# TCB012 — typed-fault escape (project rule)
# ---------------------------------------------------------------------- #


class TypedFaultEscape(ProjectRule):
    """TCB012 — typed faults always meet a ledgered handler."""

    rule_id = "TCB012"
    title = "typed fault escapes without a ledgered handler"
    severity = Severity.ERROR

    _SCOPE = ("repro/serving/", "repro/engine/", "repro/faults/", "repro/overload/")
    _FAULT_NAMES = frozenset(
        {"FaultOutcome", "BatchFailure", "EngineDown", "BackpressureError"}
    )
    # Canonical hierarchy, for lint runs where the defining module is
    # not part of the analyzed set (single-file fixtures).
    _CANON_BASES = {
        "repro.faults.outcomes.BatchFailure": "repro.faults.outcomes.FaultOutcome",
        "repro.faults.outcomes.EngineDown": "repro.faults.outcomes.FaultOutcome",
        "repro.faults.outcomes.FaultOutcome": "Exception",
        "repro.overload.backpressure.BackpressureError": "RuntimeError",
    }

    def _is_typed_fault(self, graph: CallGraph, qual: str) -> bool:
        seen: set[str] = set()
        stack = [qual]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            if c.rsplit(".", 1)[-1] in self._FAULT_NAMES:
                return True
            if c in graph.classes:
                stack.extend(graph.classes[c].bases)
            if c in self._CANON_BASES:
                stack.append(self._CANON_BASES[c])
        return False

    def _catches(self, graph: CallGraph, exc: str, caught: str) -> bool:
        """Does a handler for *caught* intercept a raised *exc*?"""
        if caught.rsplit(".", 1)[-1] in ("Exception", "BaseException", "RuntimeError"):
            return True
        seen: set[str] = set()
        stack = [exc]
        while stack:
            c = stack.pop()
            if c == caught or c.rsplit(".", 1)[-1] == caught.rsplit(".", 1)[-1]:
                return True
            if c in seen:
                continue
            seen.add(c)
            if c in graph.classes:
                stack.extend(graph.classes[c].bases)
            if c in self._CANON_BASES:
                stack.append(self._CANON_BASES[c])
        return False

    @staticmethod
    def _docstrings(
        graph: CallGraph, contexts: Sequence[ModuleContext], func: str
    ) -> list[str]:
        out: list[str] = []
        info = graph.functions.get(func)
        if info is None:
            return out
        doc = ast.get_docstring(info.node)
        if doc:
            out.append(doc)
        if info.cls and info.cls in graph.classes:
            cdoc = ast.get_docstring(graph.classes[info.cls].node)
            if cdoc:
                out.append(cdoc)
        for ctx in contexts:
            if ctx.path == info.path:
                mdoc = ast.get_docstring(ctx.tree)
                if mdoc:
                    out.append(mdoc)
                break
        return out

    def check_project(
        self, contexts: Sequence[ModuleContext]
    ) -> Iterator[Finding]:
        graph = build_call_graph(contexts)

        # Part A: handlers that swallow a typed fault's payload.
        for handlers in graph.handlers.values():
            for h in handlers:
                if not h.path.startswith(self._SCOPE):
                    continue
                typed = [
                    t for t in h.types if self._is_typed_fault(graph, t)
                ]
                if not typed or h.uses_bound or h.reraises:
                    continue
                names = ", ".join(t.rsplit(".", 1)[-1] for t in typed)
                yield Finding(
                    rule=self.rule_id,
                    path=h.path,
                    line=h.lineno,
                    col=h.col,
                    severity=self.severity,
                    message=(
                        f"handler catches typed fault {names} but never uses "
                        "the bound exception; its .requests payload is "
                        "silently dropped from the conservation ledger — "
                        "bind the exception and ledger/requeue its requests, "
                        "or re-raise"
                    ),
                )

        # Part B: raises with no ledgered handler anywhere on the graph.
        for site in graph.raises:
            if not site.path.startswith(self._SCOPE):
                continue
            if not self._is_typed_fault(graph, site.exc):
                continue
            holders = {site.func} | graph.transitive_callers(site.func)
            handled = any(
                self._catches(graph, site.exc, t)
                and (h.uses_bound or h.reraises)
                for holder in holders
                for h in graph.handlers.get(holder, ())
                for t in h.types
            )
            if handled:
                continue
            exc_name = site.exc.rsplit(".", 1)[-1]
            if any(
                exc_name in doc
                for doc in self._docstrings(graph, contexts, site.func)
            ):
                continue  # documented API escape (e.g. BackpressureError)
            yield Finding(
                rule=self.rule_id,
                path=site.path,
                line=site.lineno,
                col=site.col,
                severity=self.severity,
                message=(
                    f"raise of {exc_name} in {site.func}() has no ledgered "
                    "handler on any caller chain and is not a documented "
                    "API escape; an escaping typed fault loses its "
                    ".requests from the conservation ledger — add a handler "
                    "that uses the bound exception, or document the escape "
                    "in the raising function's docstring"
                ),
            )


FLOW_RULES: tuple[Rule, ...] = (
    LedgerEscape(),
    SimTimeTaint(),
    RngStreamAliasing(),
    TypedFaultEscape(),
)
