"""Snapshot: a checkpoint of serving state that copies only what is live.

A :class:`Snapshot` holds what a serving loop needs to restart from a
step boundary, as the mapping *name → exported state*, and it is the
whole recovery state: a restored loop re-executes from the snapshot's
step.  Each owner — the wait queue, the metrics ledger, the tracer, the
admission and overload controllers, the cluster-health and tenancy
planes — lowers itself to plain data through its own ``export_state()``;
the loop's locals (clock, arrival cursor, cluster idle heap,
iteration-level residents, RNG cursor) and the fault-engine cursors ride
along, so a restored run re-consumes the *same* seeded fault events the
crashed run did.  Nothing is deep-copied.  An exported state is made of
two things:

- **fresh containers** for state that mutates in place and is bounded
  by what is live (the waiting set and the retry counts of the waiting
  requests and the residents, a breaker's counters, the miss window,
  token buckets) — copied shallowly, the elements shared;
- **watermarks** (:class:`repro.watermark.Watermark`: the container
  itself plus its length) for state that only ever grows — the terminal
  ledgers, ``finish_times``, transition logs, the admission
  controller's refusals, and the tracer's log, which is all the state
  a tracer has.

The queue's per-id history of requests that have ended is not kept: the
retry counts of ended requests are never read again, and restore
rebuilds ``served_ids`` (the duplicate-id guard) from the served ledger
and the residents.

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

:data:`ABSOLUTE` names the owners that restore hands back to the
caller-held objects: :meth:`Snapshot.capture` exports exactly those and
:meth:`~repro.durability.restore.RestoredState.apply_shared` consumes
exactly those, so an owner that is captured is restored by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "ABSOLUTE",
    "LiveState",
    "Snapshot",
    "apply_engine_cursors",
    "capture_engine_cursors",
]

# Planes the caller holds: restore hands each export back into the
# caller's object (as it does the tracer's), while the queue and the
# metrics it rebuilds as new objects.
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


@dataclass
class Snapshot:
    """One checkpoint: name → exported state as of the start of ``step``."""

    seq: int
    step: int
    state: dict[str, Any]

    @classmethod
    def capture(cls, live: LiveState, *, seq: int, step: int) -> "Snapshot":
        state = {name: _export(getattr(live, name)) for name in ABSOLUTE}
        running = None if live.running is None else tuple(live.running)
        queue = live.queue.export_state()
        # The queue keeps the waiting requests' retry counts; a resident's
        # is read again if a fault evicts it.
        attempts = live.queue.attempts
        queue["attempts"].update(
            (r.request_id, attempts[r.request_id])
            for r, _ in running or ()
            if r.request_id in attempts
        )
        state.update(
            queue=queue,
            metrics=live.metrics.export_state(),
            tracer=_export(live.tracer),
            now=live.now,
            next_arrival=live.next_arrival,
            rejected_before=live.rejected_before,
            idle=None if live.idle is None else tuple(live.idle),
            running=running,
            iteration=live.iteration,
            # NumPy builds a new state dict on every read; nothing to copy.
            rng_state=None if live.rng is None else live.rng.bit_generator.state,
            engine_cursors=capture_engine_cursors(live.engines),
            extra=live.extra,
        )
        return cls(seq=seq, step=step, state=state)
