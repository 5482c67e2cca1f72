"""Scheduler protocol shared by DAS and the baselines.

A scheduler is invoked at the beginning of each engine slot with the set
``N_t`` of waiting (non-expired) requests and returns a
:class:`SchedulingDecision`: an *ordered, per-row* selection of requests.
Row order matters — it is the concatenation order the engine executes —
and the decision optionally carries the slot size (Algorithm 2).

Schedulers are pure policies: they never mutate the queue.  The serving
loop removes the selected requests afterwards, which keeps schedulers
trivially testable in isolation.

A decision can also be taken a row at a time: :meth:`Scheduler.open`
returns a :class:`RowFill` over one waiting set and each
:meth:`RowFill.next_row` is the first row of a fresh one-row ``select``
over the requests no earlier row took.  Tenant fair share
(:mod:`repro.tenancy.fairshare`) interleaves one fill per tenant and
takes its rows through :meth:`RowFill.pull`, the same row untimed and
unwrapped.

This module also owns the scheduling package's one stopwatch.
:meth:`Scheduler.select` and :meth:`RowFill.next_row` are the timed
entry points: each runs the untimed hook a concrete class implements
(``_select`` / ``_next_row``) through :func:`_timed`, which stamps
``SchedulingDecision.runtime`` — the wall-clock figure Fig. 16 reports
— on what the hook returns.  A fair-share decision is timed once, by
the same :func:`_timed`, around all of its rows.  A policy implements
the hook and never reads a clock itself: its ``now`` is *simulated*
time, and a body that holds no wall value cannot mix the two.  TCB003
(``tests/test_static_invariants.py``) bans the wall clock in every
other file of the package but ``serving/server.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.config import BatchConfig
from repro.types import Request

__all__ = ["RowFill", "SchedulingDecision", "Scheduler"]


@dataclass
class SchedulingDecision:
    """Output of one scheduler invocation.

    ``rows[k]`` is the ordered request list for batch row ``k`` (may be
    empty).  ``slot_size`` is set by slotted schedulers.  ``runtime`` is
    the wall-clock seconds the scheduler itself took — the quantity
    Fig. 16 reports relative to batch inference time.
    """

    rows: list[list[Request]] = field(default_factory=list)
    slot_size: Optional[int] = None
    runtime: float = 0.0
    # Requests selected by Algorithm 1 but discarded by Algorithm 2's
    # slot-size limit (longer than the chosen slot).
    discarded: list[Request] = field(default_factory=list)
    # Scheduler self-description for observability (repro.obs): DAS
    # reports its utility-dominant / deadline-aware set sizes and η/q
    # here; traced serving loops attach it to the decision event.
    info: dict = field(default_factory=dict)

    def selected(self) -> list[Request]:
        """All selected requests in row-major (= concatenation) order."""
        return [r for row in self.rows for r in row]

    @property
    def num_selected(self) -> int:
        return sum(len(row) for row in self.rows)

    def validate(self, batch: BatchConfig) -> None:
        """Check Eq. 10 (no duplicates) and Eq. 11 (row budgets)."""
        if len(self.rows) > batch.num_rows:
            raise ValueError(
                f"{len(self.rows)} rows selected for a {batch.num_rows}-row batch"
            )
        seen: set[int] = set()
        for row in self.rows:
            total = sum(r.length for r in row)
            if total > batch.row_length:
                raise ValueError(
                    f"row holds {total} tokens > L={batch.row_length}"
                )
            for r in row:
                if r.request_id in seen:
                    raise ValueError(f"request {r.request_id} selected twice")
                seen.add(r.request_id)


def _timed(hook: Callable[..., SchedulingDecision], *args) -> SchedulingDecision:
    """Run one decision hook and stamp the wall-clock seconds it took."""
    start = time.perf_counter()
    decision = hook(*args)
    decision.runtime = time.perf_counter() - start
    return decision


class RowFill:
    """The rows of one decision over *waiting*, handed out on request.

    This is the definition, and what every scheduler without a cheaper
    way inherits: re-run the scheduler with a one-row batch over a list
    that shrinks by each row handed out.
    """

    def __init__(self, scheduler: "Scheduler", waiting: Sequence[Request], now: float):
        self._scheduler = scheduler
        self._remaining = list(waiting)
        self._now = now
        self._one_row = BatchConfig(
            num_rows=1, row_length=scheduler.batch.row_length
        )

    def next_row(self) -> SchedulingDecision:
        """A decision of at most one row; ``rows == []`` when nothing
        that is left fits a row (asking again will not change that)."""
        return _timed(self._next_row)

    def pull(self) -> tuple[list[Request], Optional[int], Sequence[Request]]:
        """:meth:`next_row` untimed, as ``(row, slot size, discarded)``;
        the row is empty when nothing that is left fits one."""
        sub = self._next_row()
        return (sub.rows[0] if sub.rows else []), sub.slot_size, sub.discarded

    def _next_row(self) -> SchedulingDecision:
        scheduler = self._scheduler
        saved = scheduler.batch
        scheduler.batch = self._one_row
        try:
            sub = scheduler.select(self._remaining, self._now)
        finally:
            scheduler.batch = saved
        del sub.rows[1:]
        if sub.rows:
            taken = {r.request_id for r in sub.rows[0]}
            self._remaining = [
                r for r in self._remaining if r.request_id not in taken
            ]
        return sub


class Scheduler:
    """Base class for scheduling policies."""

    name: str = "base"

    def __init__(self, batch: BatchConfig):
        self.batch = batch

    def select(
        self, waiting: Sequence[Request], now: float = 0.0
    ) -> SchedulingDecision:
        """Pick requests for the engine slot starting at ``now``.

        ``waiting`` contains only requests available at ``now``
        (arrived, not expired, not yet served) — the serving loop
        guarantees this precondition.
        """
        return _timed(self._select, waiting, now)

    def _select(
        self, waiting: Sequence[Request], now: float
    ) -> SchedulingDecision:
        """The policy itself, untimed: what a scheduler implements."""
        raise NotImplementedError

    def open(self, waiting: Sequence[Request], now: float = 0.0) -> RowFill:
        """Start a row-at-a-time decision over *waiting*."""
        return RowFill(self, waiting, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(B={self.batch.num_rows}, "
            f"L={self.batch.row_length})"
        )
