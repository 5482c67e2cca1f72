"""Offline optima for the scheduling problem (Eqs. 9–13).

Used to check Theorem 5.1 (the ``ηq/(ηq+1)`` competitive ratio)
empirically:

- :func:`exact_opt` — exact optimum by branch-and-bound over time slots
  with bin-packing feasibility per slot.  Exponential; intended for tiny
  instances (≤ ~14 requests, ≤ ~4 slots) in tests.
- :func:`lp_upper_bound` — LP relaxation via :func:`scipy.optimize.linprog`
  (HiGHS).  The row structure is relaxed to an aggregate ``B·L`` token
  budget per slot and integrality is dropped, so
  ``LP ≥ OPT ≥ ALG ≥ α·OPT`` — the LP gives a cheap upper bound for
  larger instances.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.types import Request

__all__ = ["exact_opt", "lp_upper_bound", "fits_in_rows"]


def fits_in_rows(lengths: Sequence[int], num_rows: int, row_length: int) -> bool:
    """Exact bin-packing feasibility: do ``lengths`` fit in B rows of L?

    Branch-and-bound with longest-first ordering and symmetric-row
    pruning.  Exponential in the worst case; fine for the instance sizes
    the tests use.
    """
    items = sorted((l for l in lengths), reverse=True)
    if not items:
        return True
    if items[0] > row_length:
        return False
    if sum(items) > num_rows * row_length:
        return False
    rows = [row_length] * num_rows

    def place(i: int) -> bool:
        if i == len(items):
            return True
        seen: set[int] = set()
        for k in range(num_rows):
            if rows[k] >= items[i] and rows[k] not in seen:
                seen.add(rows[k])
                rows[k] -= items[i]
                if place(i + 1):
                    rows[k] += items[i]
                    return True
                rows[k] += items[i]
        return False

    return place(0)


def _available_slots(req: Request, slot_times: Sequence[float]) -> list[int]:
    return [
        t_idx
        for t_idx, t in enumerate(slot_times)
        if req.arrival <= t <= req.deadline
    ]


def exact_opt(
    requests: Sequence[Request],
    slot_times: Sequence[float],
    num_rows: int,
    row_length: int,
) -> float:
    """Exact offline optimum of Eqs. 9–13 by exhaustive assignment.

    Each request is assigned to one of its available slots or dropped;
    per-slot feasibility is checked with exact bin packing.  The search
    is pruned on a running utility upper bound.
    """
    reqs = [r for r in requests if r.length <= row_length]
    options = [(-r.utility, r, _available_slots(r, slot_times)) for r in reqs]
    # High-utility requests first so pruning bites early.
    options.sort(key=lambda x: x[0])
    suffix_utility = [0.0] * (len(options) + 1)
    for i in range(len(options) - 1, -1, -1):
        suffix_utility[i] = suffix_utility[i + 1] + options[i][1].utility

    best = 0.0
    slot_loads: list[list[int]] = [[] for _ in slot_times]

    def recurse(i: int, value: float) -> None:
        nonlocal best
        if value + suffix_utility[i] <= best:
            return
        if i == len(options):
            best = max(best, value)
            return
        _, req, slots = options[i]
        for t_idx in slots:
            slot_loads[t_idx].append(req.length)
            if sum(slot_loads[t_idx]) <= num_rows * row_length and fits_in_rows(
                slot_loads[t_idx], num_rows, row_length
            ):
                recurse(i + 1, value + req.utility)
            slot_loads[t_idx].pop()
        # Drop the request.
        recurse(i + 1, value)

    recurse(0, 0.0)
    return best


def lp_upper_bound(
    requests: Sequence[Request],
    slot_times: Sequence[float],
    num_rows: int,
    row_length: int,
) -> float:
    """LP-relaxation upper bound on the offline optimum.

    Variables ``x[n, t] ∈ [0, 1]`` with Σ_t x ≤ 1 per request and
    Σ_n l_n x ≤ B·L per slot, maximising Σ v_n x.  Row structure and
    integrality are relaxed, so the value dominates OPT.
    """
    from scipy.optimize import linprog

    reqs = [r for r in requests if r.length <= row_length]
    n, T = len(reqs), len(slot_times)
    if n == 0 or T == 0:
        return 0.0
    # Variable index (i, t) -> i * T + t.
    c = np.zeros(n * T)
    for i, r in enumerate(reqs):
        avail = set(_available_slots(r, slot_times))
        for t in range(T):
            c[i * T + t] = -r.utility if t in avail else 0.0

    a_ub = []
    b_ub = []
    # Per-request: sum over slots <= 1.
    for i in range(n):
        row = np.zeros(n * T)
        row[i * T : (i + 1) * T] = 1.0
        a_ub.append(row)
        b_ub.append(1.0)
    # Per-slot capacity.
    for t in range(T):
        row = np.zeros(n * T)
        for i, r in enumerate(reqs):
            row[i * T + t] = r.length
        a_ub.append(row)
        b_ub.append(float(num_rows * row_length))

    bounds = []
    for i, r in enumerate(reqs):
        avail = set(_available_slots(r, slot_times))
        for t in range(T):
            bounds.append((0.0, 1.0 if t in avail else 0.0))

    res = linprog(
        c, A_ub=np.array(a_ub), b_ub=np.array(b_ub), bounds=bounds, method="highs"
    )
    if not res.success:
        raise RuntimeError(f"LP failed: {res.message}")
    return float(-res.fun)
