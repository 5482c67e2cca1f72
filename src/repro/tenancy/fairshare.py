"""Deficit-weighted fair sharing of the batch across active tenants.

Each scheduling decision owns a token budget ``num_rows × row_length``.
When more than one tenant has waiting requests, that budget is
partitioned by **weight × deficit** before the per-tenant DAS select
runs: every active tenant's *entitlement* for the decision is its
weight-proportional share of the budget plus the deficit carried from
earlier decisions where it was under-served.  Rows are then handed out
one at a time to the tenant with the largest remaining entitlement, and
each row is the next row of that tenant's own fill
(:meth:`Scheduler.open <repro.scheduling.base.Scheduler.open>` over the
tenant's requests alone, opened once per decision when the tenant first
wins a row) — so concatenation efficiency (the whole point of TCB) is
preserved within a tenant's share, while a noisy neighbor can never
monopolize rows: its entitlement is spent after its share and the next
row goes elsewhere.  A fill is defined as a fresh one-row ``select``
over what the tenant has left; DAS serves it from one lowering of the
tenant's pool (``docs/tenancy.md``).  Rows are pulled from the fills
untimed (:meth:`RowFill.pull <repro.scheduling.base.RowFill.pull>`), and
the decision as a whole is timed once, by the scheduling package's
stopwatch.

Determinism: entitlement ties (e.g. two equal-weight tenants on their
first decision) are broken by an RNG drawn from a dedicated stream tag
(:data:`_STREAM_TENANT_FAIRNESS`), TCB011-distinct from every other
plane, seeded per decision — replays are bit-identical.  The RNG may be
handed in as a factory, which is called only when a tie needs a draw.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence, Union

import numpy as np

from repro.scheduling.base import RowFill, Scheduler, SchedulingDecision, _timed
from repro.types import Request

__all__ = [
    "fair_select",
    "entitlements",
    "settle_deficits",
    "_STREAM_TENANT_FAIRNESS",
]

# TCB011: tenancy's dedicated RNG stream tag.  Must stay distinct from
# 0x5D (random shed), 0xFA (faults), 0xCC (crashes), 0x7B (placement).
_STREAM_TENANT_FAIRNESS = 0x7E


def entitlements(
    groups: Mapping[str, Sequence[Request]],
    weights: Mapping[str, float],
    deficits: Mapping[str, float],
    budget: int,
) -> dict[str, float]:
    """Per-tenant token entitlements for one decision's *budget*.

    ``entitlement = carried deficit + budget × weight / Σ weight`` over
    the active tenants only — an idle tenant neither earns nor blocks
    share (its deficit was reset when it went idle).
    """
    total_w = sum(weights[t] for t in groups)
    return {
        t: deficits.get(t, 0.0) + budget * weights[t] / total_w
        for t in groups
    }


def settle_deficits(
    deficits: dict[str, float],
    ent: Mapping[str, float],
    used: Mapping[str, int],
    budget: int,
) -> None:
    """Carry unspent entitlement forward; reset idle tenants.

    The carry is clamped to ``[0, budget]``: an over-served tenant
    starts the next decision from zero (it cannot go into debt beyond
    one decision), and an under-served one can bank at most one full
    decision's budget — enough to eventually win rows against any
    weight ratio without unbounded credit hoarding.
    """
    for t in list(deficits):
        if t not in ent:
            deficits[t] = 0.0  # went idle: classic DRR reset
    for t, e in ent.items():
        deficits[t] = min(float(budget), max(0.0, e - used.get(t, 0)))


def fair_select(
    scheduler: Scheduler,
    groups: Mapping[str, list[Request]],
    now: float,
    *,
    weights: Mapping[str, float],
    deficits: dict[str, float],
    rng: Union[np.random.Generator, Callable[[], np.random.Generator]],
) -> SchedulingDecision:
    """One fair-shared scheduling decision over ≥ 2 active tenants.

    Allocates the batch's rows by weight×deficit entitlement, pulls each
    row from the winning tenant's :class:`~repro.scheduling.base.RowFill`,
    and recombines the rows into a single :class:`SchedulingDecision`
    that satisfies ``validate(batch)`` (row budgets hold per fill;
    duplicates are impossible because a fill never hands a request out
    twice).  ``discarded`` lists each request a fill discarded once, in
    first-discard order, and never one the decision selected.  *rng* is
    a Generator, or a factory called on the first tie that needs a draw.
    ``runtime`` is the whole decision's, timed once.
    """
    return _timed(_fair_decision, scheduler, groups, now, weights, deficits, rng)


def _fair_decision(
    scheduler: Scheduler,
    groups: Mapping[str, list[Request]],
    now: float,
    weights: Mapping[str, float],
    deficits: dict[str, float],
    rng: Union[np.random.Generator, Callable[[], np.random.Generator]],
) -> SchedulingDecision:
    batch = scheduler.batch
    budget = batch.num_rows * batch.row_length
    ent = entitlements(groups, weights, deficits, budget)
    # One fill per tenant, opened when the tenant first wins a row.
    fills: dict[str, RowFill] = {}
    # Requests not yet handed out; 0 also parks a tenant (see below).
    left = {t: len(reqs) for t, reqs in groups.items()}
    used: dict[str, int] = {t: 0 for t in groups}
    alloc: dict[str, int] = {t: 0 for t in groups}

    rows: list[list[Request]] = []
    discarded: dict[int, Request] = {}
    slot_sizes: set[int] = set()
    for _ in range(batch.num_rows):
        active = [t for t in left if left[t]]
        if not active:
            break
        best_ent = max(ent[t] - used[t] for t in active)
        tied = sorted(
            t for t in active if ent[t] - used[t] >= best_ent - 1e-12
        )
        if len(tied) == 1:
            winner = tied[0]
        else:
            if not isinstance(rng, np.random.Generator):
                rng = rng()
            winner = tied[rng.integers(len(tied))]
        fill = fills.get(winner)
        if fill is None:
            fill = fills[winner] = scheduler.open(groups[winner], now)
        row, slot_size, dropped = fill.pull()
        for r in dropped:
            discarded.setdefault(r.request_id, r)
        if not row:
            # Nothing from this tenant fits a fresh row (e.g. every
            # request longer than L): park it for this decision so the
            # row loop always makes progress.
            left[winner] = 0
            continue
        if slot_size is not None:
            slot_sizes.add(slot_size)
        left[winner] -= len(row)
        used[winner] += sum(r.length for r in row)
        alloc[winner] += 1
        rows.append(row)

    if discarded:
        for row in rows:
            for r in row:
                discarded.pop(r.request_id, None)
    settle_deficits(deficits, ent, used, budget)
    return SchedulingDecision(
        rows=rows,
        # Slotted fills only compose when they agree on one size.
        slot_size=slot_sizes.pop() if len(slot_sizes) == 1 else None,
        discarded=list(discarded.values()),
        info={
            "scheduler": f"fair-share/{scheduler.name}",
            "tenants": sorted(groups),
            "rows_by_tenant": {t: alloc[t] for t in sorted(alloc)},
            "tokens_by_tenant": {t: used[t] for t in sorted(used)},
        },
    )
