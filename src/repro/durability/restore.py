"""Rebuild serving state from latest snapshot + committed journal replay.

The crash-boundary resolution rules (see ``docs/recovery.md``):

- **committed** records (their step has a :class:`CommitRecord`) are
  replayed onto the snapshot in journal order; list-valued state is
  rebuilt by appending, scalar state is overwritten absolutely at each
  commit — so replay is idempotent and replaying a prefix twice is
  impossible by construction (the checkpoint is thawed into new
  containers on every call);
- **uncommitted** trailing records are *voided*: the crashed step never
  happened, and the resumed loop re-executes it deterministically from
  the commit boundary (the restored RNG/fault-engine cursors guarantee
  the re-execution consumes the same seeded events);
- the one exception is **write-ahead enqueues in server mode**
  (``recover_enqueues=True``): those submits were acknowledged to a
  client, so they are recovered into the restored queue with duplicate
  suppression — never served twice, never lost.

Every record replayed here was written by one
:class:`~repro.serving.lifecycle.Lifecycle` transition, and replay
applies the same queue mutator and ledger entry that transition did —
which is why this is the one module besides ``serving/lifecycle.py``
that may call them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.durability.journal import Journal
from repro.durability.records import (
    CommitRecord,
    DispatchRecord,
    EnqueueRecord,
    HedgeRecord,
    RequeueRecord,
    ShedRecord,
    TerminalRecord,
)
from repro.durability.snapshot import (
    ABSOLUTE,
    REPLAYED,
    apply_engine_cursors,
)
from repro.scheduling.queue import RequestQueue
from repro.watermark import thaw

__all__ = ["RestoredState", "restore_state"]


@dataclass
class RestoredState:
    """Everything a loop needs to resume from the crash boundary.

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
    replayed_records: int = 0
    voided_records: int = 0
    # Requests recovered from write-ahead enqueues.
    recovered: list = field(default_factory=list)

    # ------------------------------------------------------------------ #

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


def restore_state(
    journal: Journal, *, recover_enqueues: bool = False
) -> RestoredState:
    """Latest snapshot + committed-record replay → :class:`RestoredState`.

    Repeatable: every call thaws the checkpoint into new containers, so
    restoring twice from the same journal yields two independent,
    identical states.
    """
    # Deferred: repro.serving imports this module through its loops.
    from repro.serving.metrics import ServingMetrics

    snap = journal.latest_snapshot
    if snap is None:
        raise ValueError("cannot restore: journal holds no snapshot")

    base = snap.state
    queue_state, metrics_state, tracer_state = (base[name] for name in REPLAYED)
    queue = RequestQueue()
    queue.apply_state(thaw(queue_state))
    queue.served_ids, queue.attempts = journal.request_history(snap.step)
    metrics = ServingMetrics()
    metrics.apply_state(thaw(metrics_state))
    # A tracer is its log: the checkpointed prefix, which every
    # committed step's delta extends (None when the run is untraced).
    tracer_state = thaw(tracer_state)
    # Latest export per name (and per extras key): commits overwrite
    # these whole, so they are thawed once, after the last commit.
    absolute = {
        name: value
        for name, value in base.items()
        if name not in REPLAYED and name != "extra"
    }
    extra = dict(base["extra"])
    now = base["now"]
    step = snap.step

    replayed = 0
    for rec in journal.committed_records(snap.step):
        replayed += 1
        if isinstance(rec, EnqueueRecord):
            rid = rec.request.request_id
            if rid not in queue and rid not in queue.served_ids:
                queue.add(rec.request)
        elif isinstance(rec, DispatchRecord):
            if rec.resident:
                queue.remove_served(
                    [r for r in rec.requests if r.request_id in queue]
                )
        elif isinstance(rec, TerminalRecord):
            if rec.terminal == "served":
                if rec.dequeue:
                    queue.remove_served(
                        [r for r in rec.requests if r.request_id in queue]
                    )
                for r in rec.requests:
                    metrics.finish_times[r.request_id] = (
                        r.arrival,
                        rec.finish if rec.finish is not None else now,
                    )
                metrics.served.extend(rec.requests)
            elif rec.terminal == "expired":
                if rec.dequeue:
                    # Mid-run expiry: back into queue.expired, folded
                    # into metrics at end of run — same as live.
                    queue.drop(list(rec.requests))
                else:
                    # End-of-run sweep of never-queued leftovers.
                    metrics.expired.extend(rec.requests)
            elif rec.terminal == "abandoned":
                queue.abandon(list(rec.requests))
            elif rec.terminal == "rejected":
                metrics.rejected.extend(rec.requests)
        elif isinstance(rec, RequeueRecord):
            for rid, count in rec.attempts:
                queue.attempts[rid] = count
            if rec.readd:
                queue.requeue(list(rec.retained))
        elif isinstance(rec, ShedRecord):
            # metrics.shed is bumped incrementally; the next commit
            # overwrites it with the absolute recorded value.
            taken = queue.take(rec.requests)
            metrics.rejected.extend(taken)
            metrics.shed += len(taken)
        elif isinstance(rec, HedgeRecord):
            # Audit-only: the winner's dispatch/terminal records carry
            # every queue and ledger effect, and hedge counters are
            # restored absolutely at each commit — replaying the race
            # twice is impossible by construction (exactly-once).
            pass
        elif isinstance(rec, CommitRecord):
            st = rec.state
            now = absolute["now"] = st.now
            absolute["next_arrival"] = st.next_arrival
            metrics.arrived = st.arrived
            metrics.total_engine_time = st.engine_time
            metrics.total_scheduler_time = st.scheduler_time
            metrics.num_batches = st.num_batches
            metrics.useful_tokens = st.useful_tokens
            metrics.padded_tokens = st.padded_tokens
            metrics.retries = st.retries
            metrics.failed_batches = st.failed_batches
            metrics.downtime = st.downtime
            metrics.shed = st.shed
            metrics.hedges = st.hedges
            metrics.hedge_wins = st.hedge_wins
            metrics.hedge_wasted = st.hedge_wasted
            if tracer_state is not None:
                tracer_state["events"].extend(st.tracer_delta)
            absolute.update(
                (name, value)
                for name, value in st.absolute.items()
                if value is not None
            )
            extra.update(st.extra)
            step = rec.step + 1

    recovered: list = []
    if recover_enqueues:
        for enq in journal.uncommitted_enqueues():
            rid = enq.request.request_id
            if rid in queue or rid in queue.served_ids:
                continue
            queue.add(enq.request)
            # A write-ahead enqueue was acknowledged to its client: it
            # exists, so it re-enters the arrived denominator.
            metrics.arrived += 1
            recovered.append(enq.request)

    absolute = thaw(absolute)
    shared = {name: absolute.pop(name) for name in ABSOLUTE}
    shared["tracer"] = tracer_state
    for name in ("idle", "running"):
        if absolute[name] is not None:
            absolute[name] = list(absolute[name])
    return RestoredState(
        step=step,
        queue=queue,
        metrics=metrics,
        shared=shared,
        extra=thaw(extra),
        snapshot_seq=snap.seq,
        replayed_records=replayed,
        voided_records=len(journal.uncommitted_records()),
        recovered=recovered,
        **absolute,
    )
