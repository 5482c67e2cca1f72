"""The durability plane: write-ahead journaling + periodic snapshots.

One :class:`DurabilityPlane` per serving run (or per
:class:`~repro.serving.server.TCBServer` lifetime) receives the loop's
semantic mutations — enqueue, dispatch, terminal, requeue, shed — as
typed journal records, seals each completed step with a commit record
carrying the small absolute state, and takes a
:class:`~repro.durability.snapshot.Snapshot` (each owner's exported
state: what is live plus watermarks, never a deep copy) every
``checkpoint_every`` steps.  Everything runs on the simulated clock
(``repro/durability`` is inside TCB003's scope,
``tests/test_static_invariants.py``) and the plane
is pure bookkeeping: with ``durability=None`` the loops take exactly
their pre-durability paths, bit-identical to today.

The plane is also where a planned
:class:`~repro.faults.plan.SchedulerCrash` fires: at the configured
step it raises :class:`~repro.faults.plan.SchedulerCrashed` out of the
serving loop, leaving the journal holding a committed prefix plus the
crashed step's trailing records.  :meth:`restore` rebuilds a
:class:`~repro.durability.restore.RestoredState` from the latest
snapshot + committed replay; passing it back into the loop's ``run(...,
resume=)`` resumes at the crash boundary and must reproduce the
uninterrupted run's terminal ledger bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.durability.digest import digest_diff, state_digest
from repro.durability.journal import Journal
from repro.durability.records import (
    CommitRecord,
    DispatchRecord,
    EnqueueRecord,
    HedgeRecord,
    RequeueRecord,
    ShedRecord,
    StepState,
    TerminalRecord,
)
from repro.durability.restore import RestoredState, restore_state
from repro.durability.snapshot import LiveState, Snapshot, absolute_state
from repro.faults.plan import SchedulerCrash, SchedulerCrashed
from repro.types import Request

__all__ = ["DurabilityConfig", "DurabilityPlane"]


@dataclass(frozen=True)
class DurabilityConfig:
    """What the plane does per run.

    ``checkpoint_every`` is the snapshot cadence in serving steps; 0
    keeps only the genesis snapshot (restore then replays the whole
    committed journal).  ``crash`` arms a planned scheduler crash;
    ``verify_replay`` re-restores at every snapshot boundary and
    asserts the replayed state matches the live state exactly (the
    plane auditing itself — expensive, test-only).
    """

    checkpoint_every: int = 0
    crash: Optional[SchedulerCrash] = None
    verify_replay: bool = False

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )


class DurabilityPlane:
    """Journal writer + snapshot taker + planned-crash trigger."""

    def __init__(
        self,
        config: Optional[DurabilityConfig] = None,
        *,
        journal: Optional[Journal] = None,
    ):
        self.config = config or DurabilityConfig()
        self.journal = journal or Journal()
        self._step = 0
        self._pending = False
        self._crash_fired = False
        self._capture: Optional[Callable[[], LiveState]] = None
        self._tracer: Any = None
        # How much of the tracer's log earlier commits have journaled.
        self._log_seen = 0
        self._admission_seen = 0
        self._ended = False
        # Records a crash left trailing, pruned at resume (kept for the
        # differential report).
        self.voided: list = []

    # ------------------------------------------------------------------ #
    # Run lifecycle
    # ------------------------------------------------------------------ #

    @property
    def step(self) -> int:
        """The step index currently executing (or about to)."""
        return self._step

    def begin_run(
        self,
        capture: Callable[[], LiveState],
        tracer: Any = None,
        *,
        resume: Optional[RestoredState] = None,
    ) -> None:
        """Arm the plane for one run; take the genesis/restart snapshot.

        On resume the journal is kept (minus the crashed step's voided
        trailing records), the crash is disarmed, and a fresh restart
        snapshot bounds the next restore's replay.
        """
        self._capture = capture
        self._tracer = (
            tracer
            if tracer is not None and getattr(tracer, "enabled", False)
            else None
        )
        self._log_seen = (
            len(self._tracer.log) if self._tracer is not None else 0
        )
        if resume is None:
            self.journal.clear()
            self.voided = []
            self._step = 0
            self._crash_fired = False
        else:
            self.voided = self.journal.prune_uncommitted()
            self._step = resume.step
            self._crash_fired = True  # a restored run does not re-crash
        self._ended = False
        self._pending = False
        live = self._live()
        self._admission_seen = (
            len(live.admission.rejected) if live.admission is not None else 0
        )
        snap = self._snapshot(live)
        if self._tracer is not None:
            if resume is None:
                self._tracer.durability(
                    live.now, "snapshot", seq=snap.seq, step=snap.step,
                    genesis=True,
                )
            else:
                self._tracer.durability(
                    live.now,
                    "restore",
                    step=resume.step,
                    from_seq=resume.snapshot_seq,
                    replayed=resume.replayed_records,
                    voided=len(self.voided),
                    recovered=len(resume.recovered),
                )

    def tick(self) -> None:
        """Step boundary: commit the finished step, snapshot if due.

        Call as the first statement of every loop iteration.  The
        planned ``phase="step"`` crash fires here, after the previous
        step committed — so the journal a restore sees is exactly the
        committed prefix.
        """
        live = self._live()
        if self._pending:
            self._commit(live)
            self._step += 1
            every = self.config.checkpoint_every
            if every > 0 and self._step % every == 0:
                if self.config.verify_replay:
                    self._verify_replay(live)
                snap = self._snapshot(live)
                if self._tracer is not None:
                    self._tracer.durability(
                        live.now, "snapshot", seq=snap.seq, step=snap.step,
                    )
        self._maybe_crash("step", live.now)
        self._pending = True

    def end_run(self, leftover: Sequence[Request] = ()) -> None:
        """Seal the final step (+ the end-of-run sweep's records)."""
        live = self._live()
        if leftover:
            self.journal.append(
                TerminalRecord(
                    step=self._step,
                    terminal="expired",
                    requests=tuple(leftover),
                    dequeue=False,
                )
            )
        if self._pending:
            self._commit(live)
            self._pending = False
        self._ended = True
        self._tracer = None

    def restore(self, *, recover_enqueues: bool = False) -> RestoredState:
        """Rebuild state from the latest snapshot + committed replay.

        Refuses after a clean :meth:`end_run`: the end-of-run sweep's
        terminals are already in the final ledger, and resuming a
        completed run would re-apply the sweep on top of them
        (double-counting expiries).  Only a crashed — or still-running —
        journal is restorable; use :func:`restore_state` directly to
        inspect a finished journal.
        """
        if self._ended:
            raise ValueError(
                "cannot restore: the run completed cleanly (end_run "
                "sealed the journal); resuming it would replay the "
                "end-of-run sweep on top of the final ledger"
            )
        return restore_state(
            self.journal, recover_enqueues=recover_enqueues
        )

    # ------------------------------------------------------------------ #
    # Mutation records (called by the loops at their semantic sites)
    # ------------------------------------------------------------------ #

    def enqueue(self, request: Request) -> None:
        self.journal.append(EnqueueRecord(step=self._step, request=request))

    def dispatch(
        self,
        requests: Sequence[Request],
        *,
        engine: int = 0,
        resident: bool = False,
    ) -> None:
        """Write-ahead: journal the batch *before* the engine runs it.

        The planned ``phase="dispatch"`` crash fires here — after the
        record lands, before any engine state advances — leaving an
        uncommitted in-flight dispatch for restore to void.
        """
        if not requests:
            return
        self.journal.append(
            DispatchRecord(
                step=self._step,
                requests=tuple(requests),
                engine=engine,
                resident=resident,
            )
        )
        self._maybe_crash("dispatch", None)

    def terminal(
        self,
        kind: str,
        requests: Sequence[Request],
        *,
        finish: Optional[float] = None,
        dequeue: bool = True,
    ) -> None:
        if not requests:
            return
        self.journal.append(
            TerminalRecord(
                step=self._step,
                terminal=kind,
                requests=tuple(requests),
                finish=finish,
                dequeue=dequeue,
            )
        )

    def served(
        self,
        requests: Sequence[Request],
        finish: float,
        *,
        dequeue: bool = True,
    ) -> None:
        self.terminal("served", requests, finish=finish, dequeue=dequeue)

    def shed(self, requests: Sequence[Request]) -> None:
        if not requests:
            return
        self.journal.append(
            ShedRecord(step=self._step, requests=tuple(requests))
        )

    def hedge(
        self,
        requests: Sequence[Request],
        *,
        primary: int,
        target: int,
        deadline: float,
        outcome: str,
        winner_finish: float,
    ) -> None:
        """Journal a resolved hedge race (audit-only; see HedgeRecord)."""
        if not requests:
            return
        self.journal.append(
            HedgeRecord(
                step=self._step,
                requests=tuple(requests),
                primary=primary,
                target=target,
                deadline=deadline,
                outcome=outcome,
                winner_finish=winner_finish,
            )
        )

    def requeued(
        self,
        queue: Any,
        failed: Sequence[Request],
        retained: Sequence[Request],
        lost: Sequence[Request],
        *,
        readd: bool = False,
    ) -> None:
        """One failed batch's triage: absolute attempts + retained set.

        Reads post-bump attempt counts from the queue so replay assigns
        them absolutely (never re-increments); abandoned casualties get
        their own terminal record.
        """
        if failed:
            self.journal.append(
                RequeueRecord(
                    step=self._step,
                    attempts=tuple(
                        (r.request_id, queue.attempts.get(r.request_id, 0))
                        for r in failed
                    ),
                    retained=tuple(retained),
                    readd=readd,
                )
            )
        self.terminal("abandoned", lost)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _live(self) -> LiveState:
        if self._capture is None:
            raise RuntimeError("durability plane used before begin_run()")
        return self._capture()

    def _snapshot(self, live: LiveState) -> Snapshot:
        snap = Snapshot.capture(
            live, seq=len(self.journal.snapshots), step=self._step
        )
        self.journal.add_snapshot(snap)
        return snap

    def _tracer_delta(self) -> tuple:
        """What the tracer logged since the last commit."""
        if self._tracer is None:
            return ()
        log = self._tracer.log
        delta = tuple(log[self._log_seen:])
        self._log_seen = len(log)
        return delta

    def _commit(self, live: LiveState) -> None:
        m = live.metrics
        delta: tuple[Request, ...] = ()
        if live.admission is not None:
            rejected = live.admission.rejected
            delta = tuple(rejected[self._admission_seen:])
            self._admission_seen = len(rejected)
        state = StepState(
            now=live.now,
            next_arrival=live.next_arrival,
            arrived=m.arrived,
            engine_time=m.total_engine_time,
            scheduler_time=m.total_scheduler_time,
            num_batches=m.num_batches,
            useful_tokens=m.useful_tokens,
            padded_tokens=m.padded_tokens,
            retries=m.retries,
            failed_batches=m.failed_batches,
            downtime=m.downtime,
            shed=m.shed,
            hedges=m.hedges,
            hedge_wins=m.hedge_wins,
            hedge_wasted=m.hedge_wasted,
            tracer_delta=self._tracer_delta(),
            admission_rejected=delta,
            absolute=absolute_state(live),
            extra=live.extra,
        )
        self.journal.append(CommitRecord(step=self._step, state=state))

    def _verify_replay(self, live: LiveState) -> None:
        """Restore from the previous snapshot and diff against live."""
        restored = restore_state(self.journal)
        replayed = state_digest(
            restored.queue,
            restored.metrics,
            now=restored.now,
            next_arrival=restored.next_arrival,
        )
        actual = state_digest(
            live.queue, live.metrics, now=live.now,
            next_arrival=live.next_arrival,
        )
        if replayed != actual:
            raise AssertionError(
                "journal replay diverged from live state at step "
                f"{self._step}: " + "; ".join(digest_diff(replayed, actual))
            )

    def _maybe_crash(self, phase: str, now: Optional[float]) -> None:
        crash = self.config.crash
        if (
            crash is None
            or self._crash_fired
            or crash.phase != phase
            or self._step != crash.step
        ):
            return
        self._crash_fired = True
        if self._tracer is not None:
            t = now if now is not None else self._live().now
            self._tracer.durability(
                t, "crash", step=self._step, phase=phase
            )
        raise SchedulerCrashed(self._step, phase)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DurabilityPlane(step={self._step}, "
            f"journal={self.journal!r})"
        )
