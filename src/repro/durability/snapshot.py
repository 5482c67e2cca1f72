"""Snapshot: a checkpoint of serving state that copies only what is live.

A :class:`Snapshot` holds what a serving loop needs to restart from a
step boundary, as the mapping *name → exported state*.  Each owner —
the wait queue, the metrics ledger, the tracer, the admission and
overload controllers, the cluster-health and tenancy planes — lowers
itself to plain data through its own ``export_state()``; the loop's
locals (clock, arrival cursor, cluster idle heap, iteration-level
residents, RNG cursor) and the fault-engine cursors ride along, so a
restored run re-consumes the *same* seeded fault events the crashed run
would have.  Nothing is deep-copied.  An exported state is made of three
things:

- **fresh containers** for state that mutates in place and is bounded
  by what is live (the waiting set, a breaker's counters, the miss
  window, token buckets) — copied shallowly, the elements shared;
- **watermarks** (:class:`repro.watermark.Watermark`: the container
  itself plus its length) for state that only ever grows — the terminal
  ledgers, ``finish_times``, transition logs, the admission
  controller's refusals, and the tracer's log, which is all the state
  a tracer has;
- **nothing** for what the journal already holds: the queue's
  ``served_ids`` and ``attempts`` change per request id, every change is
  a journal record, and restore folds them back
  (:meth:`~repro.durability.journal.Journal.request_history`).

So a checkpoint costs the live state plus a constant, however long the
run has been going, and is still safe from later mutation — under one
rule every owner keeps: **leaves are immutable** (``Request``, the
``obs.spans`` events, tuples, numbers; the ``attrs`` of a tracer log
entry is never mutated after emit), and **a watermarked container is never truncated,
reordered or rewritten below its mark** — it is appended to, or left
alone (``apply_state`` rebinds such a container, it does not refill
it).  Restore thaws an export into new lists and dicts on every call
(:func:`repro.watermark.thaw`), so restored state never aliases a
checkpoint, another restore, or the crashed objects.

One table drives both directions: :data:`REPLAYED` and :data:`ABSOLUTE`
name the owners, :meth:`Snapshot.capture` exports exactly those and
:func:`repro.durability.restore.restore_state` /
:meth:`~repro.durability.restore.RestoredState.apply_shared` consume
exactly those, so an owner that is captured is restored by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "ABSOLUTE",
    "REPLAYED",
    "LiveState",
    "Snapshot",
    "absolute_state",
    "apply_engine_cursors",
    "capture_engine_cursors",
]

# Owners a checkpoint exports and journal replay then advances record
# by record (restore rebuilds each as a real object).
REPLAYED = ("queue", "metrics", "tracer")
# Owners small enough that every commit re-exports them whole; restore
# keeps the latest export and hands it back to the caller-held object.
ABSOLUTE = ("admission", "overload", "health", "tenancy")


def _export(owner: Any) -> Optional[dict]:
    """``owner.export_state()``; None for an absent or disabled owner."""
    if owner is None or not getattr(owner, "enabled", True):
        return None
    return owner.export_state()


def capture_engine_cursors(engines: Any) -> Optional[tuple]:
    """Fault-plane cursors per engine (None entries for plain engines).

    A restored loop re-dispatches the in-flight batch; rolling these
    cursors back guarantees the re-dispatch consumes exactly the fault
    events the crashed dispatch consumed.
    """
    if not engines:
        return None
    out: list[Optional[tuple]] = []
    for e in engines:
        if hasattr(e, "serve_calls"):
            out.append((e.serve_calls, e.straggler_events, e.down_until))
        else:
            out.append(None)
    return tuple(out)


def apply_engine_cursors(engines: Any, cursors: Optional[tuple]) -> None:
    """Roll fault-plane cursors back to :func:`capture_engine_cursors`."""
    if not engines or cursors is None:
        return
    for engine, cursor in zip(engines, cursors):
        if cursor is None or not hasattr(engine, "serve_calls"):
            continue
        engine.serve_calls, engine.straggler_events, engine.down_until = cursor


@dataclass
class LiveState:
    """References + current values of one loop's running state.

    Built fresh by the loop's capture closure on every plane call:
    ``queue``/``metrics``/``tracer``/``overload``/``admission``/
    ``engines``/``rng`` are the live objects; ``now``/``next_arrival``/
    ``idle``/``running``/``iteration`` are the current local values
    (``idle`` as the raw heap list, ``running`` as ``(request,
    remaining_steps)`` pairs).
    """

    queue: Any
    metrics: Any
    now: float = 0.0
    next_arrival: int = 0
    rejected_before: int = 0
    tracer: Any = None
    overload: Any = None
    admission: Any = None
    engines: tuple = ()
    idle: Optional[list] = None
    running: Optional[list] = None
    iteration: Optional[int] = None
    rng: Any = None
    # The live TailTolerancePlane (None when the run carries no plane).
    health: Any = None
    # The live TenancyPlane (None when the run carries no plane).
    tenancy: Any = None
    extra: dict = field(default_factory=dict)


def absolute_state(live: LiveState) -> dict[str, Any]:
    """What every commit (and every checkpoint) exports whole.

    The :data:`ABSOLUTE` owners plus the loop's own small structures;
    None marks state this run does not have.
    """
    state = {name: _export(getattr(live, name)) for name in ABSOLUTE}
    state["idle"] = None if live.idle is None else tuple(live.idle)
    state["running"] = None if live.running is None else tuple(live.running)
    state["iteration"] = live.iteration
    # NumPy builds a new state dict on every read; nothing to copy.
    state["rng_state"] = (
        None if live.rng is None else live.rng.bit_generator.state
    )
    state["engine_cursors"] = capture_engine_cursors(live.engines)
    return state


@dataclass
class Snapshot:
    """One checkpoint: name → exported state as of the start of ``step``."""

    seq: int
    step: int
    state: dict[str, Any]

    @classmethod
    def capture(cls, live: LiveState, *, seq: int, step: int) -> "Snapshot":
        state = {name: _export(getattr(live, name)) for name in REPLAYED}
        state.update(absolute_state(live))
        state.update(
            now=live.now,
            next_arrival=live.next_arrival,
            rejected_before=live.rejected_before,
            extra=live.extra,
        )
        return cls(seq=seq, step=step, state=state)
