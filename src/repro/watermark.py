"""(reference, length) watermarks: checkpoint grow-only state in O(1).

An owner's ``export_state()`` returns plain data: fresh containers for
state that mutates in place, and a :class:`Watermark` for every
container that only ever grows — the container itself plus its length
at export time.  Nothing is copied until :func:`thaw` slices the first
``n`` entries back out, so a checkpoint pays for what is live, not for
the run so far.

Sound only under the rule ``repro.durability.snapshot`` spells out:
entries are immutable, and a watermarked list is never truncated or
reordered (a watermarked dict never loses or rewrites a key).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any, Union

__all__ = ["Watermark", "mark", "thaw"]


@dataclass(frozen=True)
class Watermark:
    """The first ``n`` entries of the grow-only list or dict ``ref``."""

    ref: Union[list, dict]
    n: int


def mark(container: Union[list, dict]) -> Watermark:
    """Watermark *container* at its current length."""
    return Watermark(container, len(container))


def thaw(state: Any) -> Any:
    """Exported state as fresh, independent containers.

    Dicts and lists are rebuilt recursively and every watermark is
    sliced into a new list/dict; everything else is an immutable leaf
    and is shared.  Two thaws of one export never alias each other.
    """
    kind = type(state)
    if kind is Watermark:
        if len(state.ref) < state.n:
            raise ValueError(
                f"watermarked {type(state.ref).__name__} was truncated: "
                f"{len(state.ref)} entries left of the {state.n} marked"
            )
        if isinstance(state.ref, dict):
            return dict(islice(state.ref.items(), state.n))
        return state.ref[: state.n]
    if kind is dict:
        return {k: thaw(v) for k, v in state.items()}
    if kind is list:
        return [thaw(v) for v in state]
    return state
