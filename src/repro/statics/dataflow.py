"""Generic forward-dataflow fixpoint engine over :mod:`repro.statics.cfg`.

A rule supplies two callables and gets per-node input/output states:

- ``transfer(node, state) -> state`` — the effect of executing one CFG
  node,
- ``join(a, b) -> state`` — merge states at control-flow joins (must be
  monotone: the analysis iterates to a fixpoint).

States must be immutable values with ``==`` (frozensets of taint tuples
in the shipped rules).  The engine iterates in reverse postorder with a
worklist; an iteration cap guards against a non-monotone transfer
looping forever (it raises, loudly — a broken rule must not pass
silently).
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.statics.cfg import CFG, CFGNode

__all__ = ["FixpointError", "run_forward"]

S = TypeVar("S")

Transfer = Callable[[CFGNode, S], S]
Join = Callable[[S, S], S]


class FixpointError(RuntimeError):
    """The analysis failed to converge (non-monotone transfer/join)."""


def run_forward(
    cfg: CFG,
    *,
    init: S,
    bottom: S,
    transfer: Transfer,
    join: Join,
    max_passes: int = 100,
) -> tuple[dict[int, S], dict[int, S]]:
    """Run a forward analysis to fixpoint; returns ``(in, out)`` maps.

    ``init`` seeds the entry node's input; every other node starts from
    ``bottom``.  Unreachable nodes keep ``bottom`` on both sides.
    """
    in_state: dict[int, S] = {n.idx: bottom for n in cfg.nodes}
    out_state: dict[int, S] = {n.idx: bottom for n in cfg.nodes}
    in_state[CFG.ENTRY] = init

    order = cfg.rpo()
    position = {idx: i for i, idx in enumerate(order)}
    worklist = list(order)
    queued = set(worklist)
    passes = 0

    while worklist:
        passes += 1
        if passes > max_passes * max(1, len(cfg.nodes)):
            raise FixpointError(
                f"{cfg.name}: no fixpoint after {passes} node visits "
                "(non-monotone transfer?)"
            )
        worklist.sort(key=lambda idx: position.get(idx, 0))
        idx = worklist.pop(0)
        queued.discard(idx)
        node = cfg.nodes[idx]

        if idx != CFG.ENTRY:
            acc = bottom
            for e in node.preds:
                acc = join(acc, out_state[e.src])
            in_state[idx] = acc

        new_out = transfer(node, in_state[idx])
        if new_out != out_state[idx]:
            out_state[idx] = new_out
            for e in node.succs:
                if e.dst not in queued:
                    worklist.append(e.dst)
                    queued.add(e.dst)
    return in_state, out_state
