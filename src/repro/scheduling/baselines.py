"""Baseline scheduling policies: FCFS, SJF and DEF (paper §6.2.4).

Each baseline orders the waiting set by its criterion; what it then
selects depends on ``concat_aware``:

- ``concat_aware=True`` — fill the full ``B × L`` batch greedily in that
  order (first row with space).  This gives the baseline the same
  *capacity* semantics as DAS and is what Figs. 11–12 use, where FCFS is
  merely a neutral ordering for comparing inference engines.
- ``concat_aware=False`` (classic semantics) — pick the first ``B``
  requests, one per row.  Off-the-shelf schedulers predate request
  concatenation and think in whole batch rows; being "aware of
  ConcatBatching" is exactly DAS's contribution (§1, §5), and Fig. 15's
  DAS-vs-baseline comparison uses this mode.

``GreedyOrderScheduler`` is the shared implementation; the three named
classes just plug in their sort keys.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.config import BatchConfig
from repro.scheduling.base import Scheduler, SchedulingDecision
from repro.types import Request

__all__ = [
    "GreedyOrderScheduler",
    "FCFSScheduler",
    "SJFScheduler",
    "DEFScheduler",
]


class GreedyOrderScheduler(Scheduler):
    """Order by ``key``, then first-fit into ``B`` rows of ``L`` tokens."""

    name = "greedy"

    def __init__(
        self,
        batch: BatchConfig,
        key: Callable[[Request], tuple],
        *,
        concat_aware: bool = True,
    ):
        super().__init__(batch)
        self._key = key
        self.concat_aware = concat_aware

    def _select(
        self, waiting: Sequence[Request], now: float
    ) -> SchedulingDecision:
        L = self.batch.row_length
        ordered = sorted(
            (r for r in waiting if r.length <= L), key=self._key
        )
        if self.concat_aware:
            rows: list[list[Request]] = [[] for _ in range(self.batch.num_rows)]
            free = [L] * self.batch.num_rows
            for req in ordered:
                for k in range(self.batch.num_rows):
                    if req.length <= free[k]:
                        rows[k].append(req)
                        free[k] -= req.length
                        break
        else:
            # Classic one-request-per-row batching.
            rows = [[r] for r in ordered[: self.batch.num_rows]]
        return SchedulingDecision(rows=[row for row in rows if row])


class FCFSScheduler(GreedyOrderScheduler):
    """First-come-first-served: earliest arrival first."""

    name = "fcfs"

    def __init__(self, batch: BatchConfig, *, concat_aware: bool = True):
        super().__init__(
            batch,
            key=lambda r: (r.arrival, r.request_id),
            concat_aware=concat_aware,
        )


class SJFScheduler(GreedyOrderScheduler):
    """Shortest-job-first: shortest sentence first."""

    name = "sjf"

    def __init__(self, batch: BatchConfig, *, concat_aware: bool = True):
        super().__init__(
            batch,
            key=lambda r: (r.length, r.request_id),
            concat_aware=concat_aware,
        )


class DEFScheduler(GreedyOrderScheduler):
    """Deadline-early-first: earliest deadline first."""

    name = "def"

    def __init__(self, batch: BatchConfig, *, concat_aware: bool = True):
        super().__init__(
            batch,
            key=lambda r: (r.deadline, r.request_id),
            concat_aware=concat_aware,
        )
