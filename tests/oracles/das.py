"""The original DAS implementation, kept verbatim as a differential oracle.

Full re-sort and re-sum per row, one Python loop per set — slow and
obviously Algorithm 1.  ``DASScheduler.select`` and ``das_row_parts``
must reproduce its output (rows, parts, info) bit for bit;
``tests/test_das_fastpath.py``, ``tests/test_fastpath_equivalence.py``
and ``tests/test_das_columns.py`` enforce it.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence

from repro.config import BatchConfig, SchedulerConfig
from repro.scheduling.base import SchedulingDecision
from repro.scheduling.das import DASScheduler
from repro.scheduling.slotted_das import SlottedDASScheduler
from repro.types import Request

__all__ = [
    "ReferenceDASScheduler",
    "ReferenceSlottedDASScheduler",
    "_reference_das_row_parts",
    "das_scheduler",
    "slotted_das_scheduler",
]


def _reference_das_row_parts(
    candidates: Sequence[Request],
    row_length: int,
    eta: float,
    q: float,
) -> tuple[list[Request], list[Request], list[Request]]:
    """The original O(n)-loop row split, kept as a differential oracle.

    :func:`das_row_parts` must return bit-identical output on every
    contract-satisfying input (candidates sorted by utility
    non-increasingly); ``tests/test_das_fastpath.py`` enforces it on
    adversarial and randomized inputs.
    """
    # Line 8: s_tk = saturating prefix size.
    s = 0
    acc = 0
    for r in candidates:
        if acc + r.length > row_length:
            break
        acc += r.length
        s += 1
    if s == 0:
        # Even the highest-utility request alone does not fit (it is
        # longer than L) — skip utility-dominant selection entirely.
        return [], [], list(candidates)

    # Line 9: p_tk = η · s_tk (at least one task so v̄ is defined).
    p = max(1, math.floor(eta * s))
    utility_dominant = list(candidates[:p])

    v_bar = sum(r.utility for r in utility_dominant) / len(utility_dominant)
    threshold = q * v_bar

    deadline_aware: list[Request] = []
    rest: list[Request] = []
    for r in candidates[p:]:
        (deadline_aware if r.utility >= threshold else rest).append(r)
    # Line 12: deadline-aware set is consumed earliest-deadline-first.
    deadline_aware.sort(key=lambda r: (r.deadline, r.request_id))
    return utility_dominant, deadline_aware, rest


class ReferenceDASScheduler(DASScheduler):
    """``DASScheduler`` with the original per-row-re-sort ``select``."""

    def select(
        self, waiting: Sequence[Request], now: float = 0.0
    ) -> SchedulingDecision:
        """The original select — full re-sort and re-sum per row.

        Kept verbatim as the differential oracle; the fast path must
        reproduce its output (rows, parts, info) bit for bit.
        """
        start = time.perf_counter()
        eta, q = self.config.eta, self.config.q
        L = self.batch.row_length
        remaining = [r for r in waiting if r.length <= L]
        rows: list[list[Request]] = []
        parts: list[tuple[list[Request], list[Request]]] = []

        for _k in range(self.batch.num_rows):
            if not remaining:
                break
            total = sum(r.length for r in remaining)
            if total <= L:
                # Lines 4–5: everything fits in this row.
                rows.append(list(remaining))
                parts.append((list(remaining), []))
                remaining = []
                break

            # Line 7: sort by utility non-increasingly (stable tie-break
            # on id for determinism).
            remaining.sort(key=lambda r: (-r.utility, r.request_id))
            n_u, n_d, rest = _reference_das_row_parts(remaining, L, eta, q)

            row: list[Request] = []
            used = 0
            chosen: set[int] = set()
            for r in n_u:
                # The utility-dominant prefix fits by construction of s_tk
                # (p ≤ s), but guard anyway.
                if used + r.length <= L:
                    row.append(r)
                    used += r.length
                    chosen.add(r.request_id)
            # Lines 11–12: earliest-deadline-first from N^D.
            for r in n_d:
                if used + r.length <= L:
                    row.append(r)
                    used += r.length
                    chosen.add(r.request_id)
            # Lines 13–15: back-fill from the rest (utility order).
            for r in rest:
                if used + r.length <= L:
                    row.append(r)
                    used += r.length
                    chosen.add(r.request_id)

            rows.append(row)
            parts.append(
                (
                    [r for r in n_u if r.request_id in chosen],
                    [r for r in n_d if r.request_id in chosen],
                )
            )
            remaining = [r for r in remaining if r.request_id not in chosen]

        if self.record_parts:
            self.last_parts = parts
        decision = SchedulingDecision(
            rows=rows,
            info={
                "scheduler": self.name,
                "eta": eta,
                "q": q,
                "num_utility_dominant": sum(len(u) for u, _ in parts),
                "num_deadline_aware": sum(len(d) for _, d in parts),
            },
        )
        decision.runtime = time.perf_counter() - start
        return decision


class ReferenceSlottedDASScheduler(SlottedDASScheduler):
    """Algorithm 2 over the reference Algorithm 1."""

    def __init__(self, batch: BatchConfig, config: Optional[SchedulerConfig] = None):
        super().__init__(batch, config)
        self._das = ReferenceDASScheduler(batch, self.config, record_parts=True)


def das_scheduler(
    batch: BatchConfig,
    config: Optional[SchedulerConfig] = None,
    *,
    record_parts: bool = False,
    reference: bool = False,
) -> DASScheduler:
    """The production scheduler, or its oracle when ``reference`` is set."""
    cls = ReferenceDASScheduler if reference else DASScheduler
    return cls(batch, config, record_parts=record_parts)


def slotted_das_scheduler(
    batch: BatchConfig,
    config: Optional[SchedulerConfig] = None,
    *,
    reference: bool = False,
) -> SlottedDASScheduler:
    cls = ReferenceSlottedDASScheduler if reference else SlottedDASScheduler
    return cls(batch, config)
