"""Clairvoyant oracle scheduler (offline upper baseline).

DAS is online — it never sees future arrivals.  For *analysis*, it is
useful to compare against a clairvoyant scheduler that knows the entire
trace and plans with the LP relaxation of Eqs. 9–13: at simulation
time, :class:`OracleScheduler` solves the LP over a fixed slot grid
once, rounds the fractional plan greedily per slot, and replays it.

This is not part of the paper (which proves a bound against OPT rather
than running it); it exists to *measure* how close DAS lands to a
clairvoyant plan on real traces — reported in the ablation bench.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.config import BatchConfig
from repro.scheduling.base import Scheduler, SchedulingDecision
from repro.types import Request

__all__ = ["OracleScheduler", "plan_with_lp"]


def plan_with_lp(
    requests: Sequence[Request],
    slot_times: Sequence[float],
    batch: BatchConfig,
) -> dict[int, int]:
    """Assign requests to slots via LP relaxation + greedy rounding.

    Returns ``request_id -> slot_index`` for assigned requests.  The LP
    (aggregate token budget per slot) is solved once; fractional values
    are rounded by, per request (highest utility first), picking its
    best-valued feasible slot with remaining token budget.
    """
    from scipy.optimize import linprog

    reqs = [r for r in requests if r.length <= batch.row_length]
    T = len(slot_times)
    if not reqs or T == 0:
        return {}
    n = len(reqs)
    cap = float(batch.capacity_tokens)

    def avail(r: Request, t: int) -> bool:
        return r.arrival <= slot_times[t] <= r.deadline

    c = np.zeros(n * T)
    bounds = []
    for i, r in enumerate(reqs):
        for t in range(T):
            ok = avail(r, t)
            c[i * T + t] = -r.utility if ok else 0.0
            bounds.append((0.0, 1.0 if ok else 0.0))

    a_ub, b_ub = [], []
    for i in range(n):
        row = np.zeros(n * T)
        row[i * T : (i + 1) * T] = 1.0
        a_ub.append(row)
        b_ub.append(1.0)
    for t in range(T):
        row = np.zeros(n * T)
        for i, r in enumerate(reqs):
            row[i * T + t] = r.length
        a_ub.append(row)
        b_ub.append(cap)

    res = linprog(
        c, A_ub=np.array(a_ub), b_ub=np.array(b_ub), bounds=bounds, method="highs"
    )
    if not res.success:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    x = res.x.reshape(n, T)

    remaining = [cap] * T
    plan: dict[int, int] = {}
    order = sorted(range(n), key=lambda i: (-reqs[i].utility, reqs[i].request_id))
    for i in order:
        r = reqs[i]
        slots = sorted(
            (t for t in range(T) if avail(r, t) and remaining[t] >= r.length),
            key=lambda t: -x[i, t],
        )
        if slots and x[i, slots[0]] > 1e-9:
            t = slots[0]
            plan[r.request_id] = t
            remaining[t] -= r.length
    return plan


class OracleScheduler(Scheduler):
    """Replays a precomputed clairvoyant plan slot by slot."""

    name = "oracle"

    def __init__(
        self,
        batch: BatchConfig,
        requests: Sequence[Request],
        slot_times: Sequence[float],
    ):
        super().__init__(batch)
        self.slot_times = list(slot_times)
        self.plan = plan_with_lp(requests, slot_times, batch)
        self._next_slot = 0

    def _select(
        self, waiting: Sequence[Request], now: float
    ) -> SchedulingDecision:
        # Map `now` to the nearest planned slot not yet replayed.
        t_idx: Optional[int] = None
        for i in range(self._next_slot, len(self.slot_times)):
            if self.slot_times[i] <= now + 1e-9:
                t_idx = i
        if t_idx is None:
            t_idx = min(self._next_slot, len(self.slot_times) - 1)
        self._next_slot = t_idx + 1

        chosen_ids = {
            rid for rid, t in self.plan.items() if t == t_idx
        }
        chosen = [r for r in waiting if r.request_id in chosen_ids]
        # Pack greedily into rows (the LP ignores row structure; packing
        # is feasible for the vast majority of plans — overflow returns
        # to the queue for the next slot).
        rows: list[list[Request]] = [[] for _ in range(self.batch.num_rows)]
        free = [self.batch.row_length] * self.batch.num_rows
        for r in sorted(chosen, key=lambda r: -r.length):
            for k in range(self.batch.num_rows):
                if r.length <= free[k]:
                    rows[k].append(r)
                    free[k] -= r.length
                    break
        return SchedulingDecision(rows=[row for row in rows if row])
