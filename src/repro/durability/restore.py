"""Rebuild serving state from the latest snapshot.

A snapshot is the whole recovery state of a simulator: restore thaws
it, and the resumed loop re-executes deterministically from the
snapshot's step (the restored RNG and fault-engine cursors make the
re-execution consume the same seeded events, see ``docs/recovery.md``).

An online server's clients cannot be re-executed, so its journal also
holds what they were told after the snapshot, and restore folds it in:
every :class:`~repro.durability.records.EnqueueRecord` counts as
arrived and is queued, unless a served
:class:`~repro.durability.records.TerminalRecord` names it; a request a
served record names is booked served at that record's finish and leaves
the queue — never served twice, never lost — and the restored clock is
the latest time a record names.  This is the one module
besides ``serving/lifecycle.py`` that may call a queue mutator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.durability.journal import Journal
from repro.durability.records import EnqueueRecord
from repro.durability.snapshot import ABSOLUTE, apply_engine_cursors
from repro.scheduling.queue import RequestQueue
from repro.types import Request
from repro.watermark import thaw

__all__ = ["RestoredState", "restore_state"]


@dataclass
class RestoredState:
    """Everything a loop needs to resume from the latest snapshot.

    ``queue``/``metrics`` are fresh objects the resumed loop owns;
    ``shared`` maps each caller-held owner (the tracer and the
    :data:`~repro.durability.snapshot.ABSOLUTE` controllers and planes)
    to its exported state, which :meth:`apply_shared` applies *into* the
    objects the caller keeps using (``self.trace`` / ``self.admission``).
    """

    step: int
    now: float
    next_arrival: int
    rejected_before: int
    queue: RequestQueue
    metrics: Any  # ServingMetrics
    shared: dict[str, Any] = field(default_factory=dict)
    idle: Optional[list] = None
    running: Optional[list] = None
    iteration: Optional[int] = None
    rng_state: Optional[dict] = None
    engine_cursors: Optional[tuple] = None
    extra: dict = field(default_factory=dict)
    snapshot_seq: int = 0
    # Requests of the server's enqueue records after the snapshot.
    recovered: list[Request] = field(default_factory=list)
    # Requests a served record took off the queue: Lifecycle.adopt gives
    # back their admission and tenant charges (a recovered submit's after
    # charging it again).
    released: list[Request] = field(default_factory=list)

    def apply_shared(self, *, engines: Any = (), **owners: Any) -> None:
        """Apply restored state into the caller-held objects, by name.

        Each owner gets its own thaw, so applying one restored state to
        two sets of objects never makes them share a container.  A name
        no checkpoint captures is a ``KeyError``, not a silent skip.
        """
        for name, owner in owners.items():
            state = self.shared[name]
            if owner is not None and state is not None:
                owner.apply_state(thaw(state))
        apply_engine_cursors(engines, self.engine_cursors)


def restore_state(journal: Journal) -> RestoredState:
    """Latest snapshot (+ the server's records since) → :class:`RestoredState`.

    Repeatable: every call thaws the checkpoint into new containers, so
    restoring twice from the same journal yields two independent,
    identical states.
    """
    # Deferred: repro.serving imports this module through its loops.
    from repro.serving.metrics import ServingMetrics

    snap = journal.latest_snapshot
    if snap is None:
        raise ValueError("cannot restore: journal holds no snapshot")
    state = thaw(snap.state)
    queue = RequestQueue()
    queue.apply_state(state.pop("queue"))
    metrics = ServingMetrics()
    metrics.apply_state(state.pop("metrics"))
    shared = {name: state.pop(name) for name in ABSOLUTE}
    shared["tracer"] = state.pop("tracer")

    recovered: list[Request] = []
    released: list[Request] = []
    for rec in journal.since(snap.step):
        if isinstance(rec, EnqueueRecord):
            # Acknowledged to its client: it exists, so it has arrived.
            recovered.append(rec.request)
            metrics.arrived += 1
            queue.add(rec.request)
            state["now"] = max(state["now"], rec.request.arrival)
        else:
            released.extend(queue.take(rec.requests))
            for r in rec.requests:
                metrics.finish_times[r.request_id] = (r.arrival, rec.finish)
            metrics.served.extend(rec.requests)
            state["now"] = max(state["now"], rec.finish)

    for name in ("idle", "running"):
        if state[name] is not None:
            state[name] = list(state[name])
    queue.served_ids = {r.request_id for r in metrics.served}
    queue.served_ids.update(r.request_id for r, _ in state["running"] or ())
    return RestoredState(
        step=snap.step,
        queue=queue,
        metrics=metrics,
        shared=shared,
        snapshot_seq=snap.seq,
        recovered=recovered,
        released=released,
        **state,
    )
