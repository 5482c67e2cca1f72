"""Intraprocedural control-flow graphs for the flow-sensitive rules.

One :class:`CFG` per function (including methods, nested functions and
lambdas are *not* expanded — a nested ``def`` is a single ``def`` node
in its enclosing graph and gets its own CFG from :func:`module_cfgs`).
Nodes are *statements*, not basic blocks: at tcblint's scale the
simplicity is worth more than the constant factor, and rules can attach
findings to a statement's own ``lineno`` directly.

Modelled control flow:

- ``if``/``elif``/``else`` — the test is a ``test`` node with ``true``
  and ``false`` out-edges,
- ``while``/``for`` with ``else`` — back edges, ``break`` jumps past the
  ``else`` clause, ``continue`` returns to the test,
- ``try``/``except``/``else``/``finally`` — every statement in a
  ``try`` body gets a conservative ``exc`` edge to each handler entry
  (or to the ``finally`` node when there are no handlers); the
  ``finally`` body is built once and routes both to the fall-through
  successor and, via a ``raise`` edge, to the function exit
  (re-raise / propagating-exception path).  This over-approximates —
  some modelled paths are infeasible — which is the safe direction for
  a linter,
- ``with`` — a ``with`` node followed by the body (suppressed
  exceptions are not modelled),
- ``return`` / ``raise`` — edges to the synthetic exit node with kinds
  ``return`` and ``raise``; analyses that only care about *normal*
  escapes filter on the edge kind,
- ``match`` — one ``case`` edge per arm plus a fall-through edge.

Exceptions from arbitrary expressions outside ``try`` bodies are *not*
modelled (every statement would otherwise have an edge to exit, drowning
the analyses in infeasible paths).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

__all__ = ["CFG", "CFGNode", "Edge", "FunctionNode", "build_cfg", "module_cfgs"]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    kind: str = ""  # "", true, false, case, exc, raise, return, break, continue, back


@dataclass
class CFGNode:
    idx: int
    stmt: Optional[ast.AST]  # None for the synthetic entry/exit
    label: str  # entry, exit, stmt, test, def, with, except, finally, return, raise
    succs: list[Edge] = field(default_factory=list)
    preds: list[Edge] = field(default_factory=list)

    @property
    def lineno(self) -> int:
        return getattr(self.stmt, "lineno", 0)


class CFG:
    """Control-flow graph of one function body."""

    ENTRY = 0
    EXIT = 1

    def __init__(self, name: str, func: Optional[FunctionNode] = None):
        self.name = name
        self.func = func
        self.nodes: list[CFGNode] = [
            CFGNode(self.ENTRY, None, "entry"),
            CFGNode(self.EXIT, None, "exit"),
        ]

    # -- construction -------------------------------------------------- #

    def add_node(self, stmt: Optional[ast.AST], label: str) -> int:
        idx = len(self.nodes)
        self.nodes.append(CFGNode(idx, stmt, label))
        return idx

    def add_edge(self, src: int, dst: int, kind: str = "") -> None:
        edge = Edge(src, dst, kind)
        if edge in self.nodes[src].succs:
            return
        self.nodes[src].succs.append(edge)
        self.nodes[dst].preds.append(edge)

    # -- queries -------------------------------------------------------- #

    def __iter__(self) -> Iterator[CFGNode]:
        return iter(self.nodes)

    def has_path(
        self, src: int, dst: int, *, skip_kinds: frozenset[str] = frozenset()
    ) -> bool:
        """Is there a directed path src → dst avoiding ``skip_kinds`` edges?"""
        seen = {src}
        stack = [src]
        while stack:
            cur = stack.pop()
            if cur == dst:
                return True
            for e in self.nodes[cur].succs:
                if e.kind in skip_kinds or e.dst in seen:
                    continue
                seen.add(e.dst)
                stack.append(e.dst)
        return False

    def nodes_at_line(self, lineno: int) -> list[CFGNode]:
        return [n for n in self.nodes if n.lineno == lineno]

    def describe(self) -> list[str]:
        """Readable edge list for shape assertions in tests."""
        out = []
        for n in self.nodes:
            tag = f"{n.idx}:{n.label}" + (f"@{n.lineno}" if n.lineno else "")
            dsts = ", ".join(
                f"{e.dst}" + (f"[{e.kind}]" if e.kind else "") for e in n.succs
            )
            out.append(f"{tag} -> [{dsts}]")
        return out

    def rpo(self) -> list[int]:
        """Reverse postorder from entry (good worklist order)."""
        seen: set[int] = set()
        order: list[int] = []

        def visit(idx: int) -> None:
            stack = [(idx, iter(self.nodes[idx].succs))]
            seen.add(idx)
            while stack:
                cur, it = stack[-1]
                advanced = False
                for e in it:
                    if e.dst not in seen:
                        seen.add(e.dst)
                        stack.append((e.dst, iter(self.nodes[e.dst].succs)))
                        advanced = True
                        break
                if not advanced:
                    order.append(cur)
                    stack.pop()

        visit(self.ENTRY)
        return list(reversed(order))


# `Pending` edges: (source node, kind) pairs waiting for their target.
_Pending = list[tuple[int, str]]


class _Loop:
    def __init__(self, continue_to: int):
        self.continue_to = continue_to
        self.breaks: _Pending = []


class _Builder:
    def __init__(self, name: str, func: Optional[FunctionNode]):
        self.cfg = CFG(name, func)
        self.loops: list[_Loop] = []
        # Stack of exception-target node lists (handler/finally entries)
        # for enclosing ``try`` bodies.
        self.exc_targets: list[list[int]] = []

    # ------------------------------------------------------------------ #

    def connect(self, pendings: _Pending, dst: int) -> None:
        for src, kind in pendings:
            self.cfg.add_edge(src, dst, kind)

    def new_node(self, stmt: ast.AST, label: str, pendings: _Pending) -> int:
        idx = self.cfg.add_node(stmt, label)
        self.connect(pendings, idx)
        if self.exc_targets and label not in ("except", "finally"):
            for target in self.exc_targets[-1]:
                self.cfg.add_edge(idx, target, "exc")
        return idx

    # ------------------------------------------------------------------ #

    def build(self, stmts: list[ast.stmt], pendings: _Pending) -> _Pending:
        for stmt in stmts:
            if not pendings:
                # Unreachable code after return/raise/break: still build
                # nodes (rules may want them) but leave them islanded.
                pass
            pendings = self.build_stmt(stmt, pendings)
        return pendings

    def build_stmt(self, stmt: ast.stmt, pendings: _Pending) -> _Pending:
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, pendings)
        if isinstance(stmt, (ast.While,)):
            return self._build_while(stmt, pendings)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._build_for(stmt, pendings)
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, pendings)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            n = self.new_node(stmt, "with", pendings)
            return self.build(stmt.body, [(n, "")])
        if isinstance(stmt, ast.Match):
            return self._build_match(stmt, pendings)
        if isinstance(stmt, ast.Return):
            n = self.new_node(stmt, "return", pendings)
            self.cfg.add_edge(n, CFG.EXIT, "return")
            return []
        if isinstance(stmt, ast.Raise):
            n = self.new_node(stmt, "raise", pendings)
            if self.exc_targets:
                for target in self.exc_targets[-1]:
                    self.cfg.add_edge(n, target, "exc")
            else:
                self.cfg.add_edge(n, CFG.EXIT, "raise")
            return []
        if isinstance(stmt, ast.Break):
            n = self.new_node(stmt, "stmt", pendings)
            if self.loops:
                self.loops[-1].breaks.append((n, "break"))
            return []
        if isinstance(stmt, ast.Continue):
            n = self.new_node(stmt, "stmt", pendings)
            if self.loops:
                self.cfg.add_edge(n, self.loops[-1].continue_to, "continue")
            return []
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            n = self.new_node(stmt, "def", pendings)
            return [(n, "")]
        n = self.new_node(stmt, "stmt", pendings)
        return [(n, "")]

    def _build_if(self, stmt: ast.If, pendings: _Pending) -> _Pending:
        t = self.new_node(stmt, "test", pendings)
        out = self.build(stmt.body, [(t, "true")])
        if stmt.orelse:
            out += self.build(stmt.orelse, [(t, "false")])
        else:
            out += [(t, "false")]
        return out

    def _build_while(self, stmt: ast.While, pendings: _Pending) -> _Pending:
        t = self.new_node(stmt, "test", pendings)
        loop = _Loop(continue_to=t)
        self.loops.append(loop)
        body_out = self.build(stmt.body, [(t, "true")])
        self.connect(body_out, t)  # back edge
        self.loops.pop()
        if stmt.orelse:
            # ``else`` runs only when the loop exits via the test.
            out = self.build(stmt.orelse, [(t, "false")])
        else:
            out = [(t, "false")]
        return out + loop.breaks

    def _build_for(self, stmt: ast.For | ast.AsyncFor, pendings: _Pending) -> _Pending:
        t = self.new_node(stmt, "test", pendings)  # the iterator probe
        loop = _Loop(continue_to=t)
        self.loops.append(loop)
        body_out = self.build(stmt.body, [(t, "true")])
        self.connect(body_out, t)
        self.loops.pop()
        if stmt.orelse:
            out = self.build(stmt.orelse, [(t, "false")])
        else:
            out = [(t, "false")]
        return out + loop.breaks

    def _build_match(self, stmt: ast.Match, pendings: _Pending) -> _Pending:
        t = self.new_node(stmt, "test", pendings)
        out: _Pending = []
        exhaustive = False
        for case in stmt.cases:
            out += self.build(case.body, [(t, "case")])
            if isinstance(case.pattern, ast.MatchAs) and case.pattern.pattern is None:
                exhaustive = True  # a bare wildcard arm
        if not exhaustive:
            out += [(t, "")]
        return out

    def _build_try(self, stmt: ast.Try, pendings: _Pending) -> _Pending:
        has_finally = bool(stmt.finalbody)
        fnode = self.cfg.add_node(stmt, "finally") if has_finally else None

        handler_entries = [
            self.cfg.add_node(h, "except") for h in stmt.handlers
        ]

        # Exceptions raised in the body land at the handlers; with no
        # handlers they flow straight into ``finally`` (or outward).
        if handler_entries:
            self.exc_targets.append(handler_entries)
        elif fnode is not None:
            self.exc_targets.append([fnode])
        else:
            self.exc_targets.append(
                self.exc_targets[-1] if self.exc_targets else []
            )
        body_out = self.build(stmt.body, pendings)
        self.exc_targets.pop()

        # ``else`` runs after a normal body completion.
        if stmt.orelse:
            body_out = self.build(stmt.orelse, body_out)

        # Handler bodies; exceptions *inside a handler* propagate to the
        # finally node (or outward).
        after: _Pending = list(body_out)
        if fnode is not None:
            self.exc_targets.append([fnode])
        for entry in handler_entries:
            after += self.build(
                self.cfg.nodes[entry].stmt.body, [(entry, "")]  # type: ignore[union-attr]
            )
        if fnode is not None:
            self.exc_targets.pop()

        if fnode is None:
            # An uncaught exception (no matching handler) propagates;
            # modelled by the handlers' own exc edges upward, nothing
            # extra to wire here.
            return after

        # Route every completion of body/else/handlers through finally.
        self.connect(after, fnode)
        fin_out = self.build(stmt.finalbody, [(fnode, "")])
        # The finally body also runs on the exceptional/return path and
        # then *leaves the function*; model with a raise edge to exit.
        for src, _kind in fin_out:
            self.cfg.add_edge(src, CFG.EXIT, "raise")
        return fin_out


def build_cfg(func: FunctionNode, name: Optional[str] = None) -> CFG:
    """Build the CFG of one function's body."""
    b = _Builder(name or func.name, func)
    out = b.build(func.body, [(CFG.ENTRY, "")])
    b.connect(out, CFG.EXIT)
    return b.cfg


def module_cfgs(tree: ast.AST) -> list[tuple[str, FunctionNode, CFG]]:
    """CFGs for every function in a module, nested and methods included.

    Returns ``(qualified_name, func_node, cfg)`` triples; the qualified
    name is dotted through enclosing classes/functions
    (``TCBServer.submit``, ``outer.<locals>.inner`` is simplified to
    ``outer.inner``).
    """
    out: list[tuple[str, FunctionNode, CFG]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                out.append((qual, child, build_cfg(child, qual)))
                visit(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out
