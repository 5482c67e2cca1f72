"""The durability plane: periodic snapshots, restore by re-execution.

One :class:`DurabilityPlane` per serving run (or per
:class:`~repro.serving.server.TCBServer` lifetime) takes a
:class:`~repro.durability.snapshot.Snapshot` (each owner's exported
state: what is live plus watermarks, never a deep copy) at the start of
the run and every ``checkpoint_every`` steps after.  A snapshot is the
whole recovery state of a simulator: the serving loops are
deterministic functions of their seed, arrivals and fault plan, so a
loop resumed from a snapshot re-executes every later step exactly.  The
simulators journal nothing; the online server journals what it told
its clients (:meth:`enqueue`, :meth:`served`), because its clients
cannot be re-executed.  Everything runs on the simulated clock
(``repro/durability`` is inside TCB003's scope,
``tests/test_static_invariants.py``) and with ``durability=None`` the
loops take exactly their pre-durability paths, bit-identical.

The plane is also where a planned
:class:`~repro.faults.plan.SchedulerCrash` fires: at the configured
step it raises :class:`~repro.faults.plan.SchedulerCrashed` out of the
serving loop.  :meth:`restore` thaws the latest snapshot into a
:class:`~repro.durability.restore.RestoredState`; passing it back into
the loop's ``run(..., resume=)`` re-executes from the snapshot's step
and must reproduce the uninterrupted run's terminal ledger bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.durability.digest import digest_diff, state_digest
from repro.durability.journal import Journal
from repro.durability.records import EnqueueRecord, TerminalRecord
from repro.durability.restore import RestoredState, restore_state
from repro.durability.snapshot import LiveState, Snapshot
from repro.faults.plan import SchedulerCrash, SchedulerCrashed
from repro.types import Request

__all__ = ["DurabilityConfig", "DurabilityPlane"]


@dataclass(frozen=True)
class DurabilityConfig:
    """What the plane does per run.

    ``checkpoint_every`` is the snapshot cadence in serving steps; 0
    keeps only the genesis snapshot (a restore then re-runs from the
    start).  ``crash`` arms a planned scheduler crash;
    ``verify_replay`` restores every periodic snapshot right after
    taking it and asserts the restored state matches the live state
    exactly (the plane auditing itself — test-only).
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
    """Snapshot taker + server record writer + planned-crash trigger."""

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
        self._ended = False

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

        On resume the crash is disarmed and the run re-executes from the
        restored snapshot's step: the records from that step on are
        folded into *resume* already, and the restart snapshot holds
        them, so they are dropped.
        """
        self._capture = capture
        self._tracer = (
            tracer
            if tracer is not None and getattr(tracer, "enabled", False)
            else None
        )
        self._ended = False
        self._pending = False
        if resume is None:
            self.journal.clear()
            self._step = 0
            self._crash_fired = False
            self._snapshot("snapshot", genesis=True)
        else:
            self.journal.records = [
                r for r in self.journal.records if r.step < resume.step
            ]
            self._step = resume.step
            self._crash_fired = True  # a restored run does not re-crash
            self._snapshot(
                "restore",
                from_seq=resume.snapshot_seq,
                recovered=len(resume.recovered),
            )

    def tick(self) -> None:
        """Step boundary: advance the step, snapshot if due, crash if due.

        Call as the first statement of every loop iteration.  The
        planned ``phase="step"`` crash fires here, after the step's
        snapshot (if one was due).
        """
        if self._pending:
            self._step += 1
            every = self.config.checkpoint_every
            if every > 0 and self._step % every == 0:
                live = self._snapshot("snapshot")
                if self.config.verify_replay:
                    self._verify_replay(live)
        self._maybe_crash("step")
        self._pending = True

    def end_run(self) -> None:
        """The run completed: nothing is left to recover."""
        self._ended = True
        self._tracer = None

    def restore(self) -> RestoredState:
        """Thaw the latest snapshot (+ the server's records since).

        Refuses after a clean :meth:`end_run`: the run's terminals are
        already in its final ledger, and there is nothing to resume.
        Use :func:`restore_state` directly to inspect a finished
        journal.
        """
        if self._ended:
            raise ValueError(
                "cannot restore: the run completed cleanly (end_run "
                "closed it); there is no crashed run to resume"
            )
        return restore_state(self.journal)

    # ------------------------------------------------------------------ #
    # The server's records and the dispatch crash point
    # ------------------------------------------------------------------ #

    def enqueue(self, request: Request) -> None:
        """A submit is admitted; journaled before it is acknowledged."""
        self.journal.append(EnqueueRecord(step=self._step, request=request))

    def served(self, requests: Sequence[Request], finish: float) -> None:
        """Responses for *requests* are delivered."""
        if requests:
            self.journal.append(
                TerminalRecord(
                    step=self._step, requests=tuple(requests), finish=finish
                )
            )

    def dispatch(self, requests: Sequence[Request]) -> None:
        """A batch is about to run: the planned ``phase="dispatch"``
        crash fires here, before any engine state advances."""
        if requests:
            self._maybe_crash("dispatch")

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _live(self) -> LiveState:
        if self._capture is None:
            raise RuntimeError("durability plane used before begin_run()")
        return self._capture()

    def _snapshot(self, event: str, **attrs: Any) -> LiveState:
        """Take a snapshot; its trace event is logged first, so the
        snapshot (and a run restored from it) holds its own event."""
        live = self._live()
        seq, step = len(self.journal.snapshots), self._step
        if self._tracer is not None:
            self._tracer.durability(live.now, event, seq=seq, step=step, **attrs)
        self.journal.add_snapshot(Snapshot.capture(live, seq=seq, step=step))
        return live

    def _verify_replay(self, live: LiveState) -> None:
        """Restore the snapshot just taken and diff it against live."""
        restored = restore_state(self.journal)
        got = state_digest(
            restored.queue,
            restored.metrics,
            now=restored.now,
            next_arrival=restored.next_arrival,
        )
        actual = state_digest(
            live.queue, live.metrics, now=live.now,
            next_arrival=live.next_arrival,
        )
        if got != actual:
            raise AssertionError(
                "restored snapshot diverged from live state at step "
                f"{self._step}: " + "; ".join(digest_diff(got, actual))
            )

    def _maybe_crash(self, phase: str) -> None:
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
            self._tracer.durability(
                self._live().now, "crash", step=self._step, phase=phase
            )
        raise SchedulerCrashed(self._step, phase)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DurabilityPlane(step={self._step}, "
            f"journal={self.journal!r})"
        )
