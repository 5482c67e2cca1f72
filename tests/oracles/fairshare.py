"""The original ``fair_select``, kept verbatim as a differential oracle.

One fresh one-row ``select`` per row over a per-tenant list rebuilt after
every row — slow and obviously the definition.  ``fair_select`` must
reproduce its rows (order included), ``deficits``, ``slot_size`` and
``info`` bit for bit, with the same number of tie-break draws;
``tests/test_fairshare_differential.py`` enforces it.  Its ``discarded``
list is *not* a reference: it repeats a request once per row that
re-discards it and can name requests a later row selected (the defect
``fair_select`` fixed).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.config import BatchConfig
from repro.scheduling.base import Scheduler, SchedulingDecision
from repro.tenancy.fairshare import entitlements, settle_deficits
from repro.types import Request

__all__ = ["reference_fair_select"]


def reference_fair_select(
    scheduler: Scheduler,
    groups: Mapping[str, list[Request]],
    now: float,
    *,
    weights: Mapping[str, float],
    deficits: dict[str, float],
    rng: np.random.Generator,
) -> SchedulingDecision:
    batch = scheduler.batch
    budget = batch.num_rows * batch.row_length
    ent = entitlements(groups, weights, deficits, budget)
    remaining = {t: list(reqs) for t, reqs in groups.items()}
    used: dict[str, int] = {t: 0 for t in groups}
    alloc: dict[str, int] = {t: 0 for t in groups}
    one_row = BatchConfig(num_rows=1, row_length=batch.row_length)

    rows: list[list[Request]] = []
    discarded: list[Request] = []
    runtime = 0.0
    slot_sizes: set[int] = set()
    for _ in range(batch.num_rows):
        active = [t for t in remaining if remaining[t]]
        if not active:
            break
        best_ent = max(ent[t] - used[t] for t in active)
        tied = sorted(
            t for t in active if ent[t] - used[t] >= best_ent - 1e-12
        )
        winner = tied[0] if len(tied) == 1 else tied[rng.integers(len(tied))]
        saved = scheduler.batch
        scheduler.batch = one_row
        try:
            sub = scheduler.select(remaining[winner], now)
        finally:
            scheduler.batch = saved
        runtime += sub.runtime
        discarded.extend(sub.discarded)
        row = sub.rows[0] if sub.rows else []
        if not row:
            # Nothing from this tenant fits a fresh row (e.g. every
            # request longer than L): park it for this decision so the
            # row loop always makes progress.
            remaining[winner] = []
            continue
        if sub.slot_size is not None:
            slot_sizes.add(sub.slot_size)
        selected_ids = {r.request_id for r in row}
        remaining[winner] = [
            r for r in remaining[winner] if r.request_id not in selected_ids
        ]
        used[winner] += sum(r.length for r in row)
        alloc[winner] += 1
        rows.append(row)

    settle_deficits(deficits, ent, used, budget)
    return SchedulingDecision(
        rows=rows,
        # Slotted sub-selects only compose when they agree on one size.
        slot_size=slot_sizes.pop() if len(slot_sizes) == 1 else None,
        runtime=runtime,
        discarded=discarded,
        info={
            "scheduler": f"fair-share/{scheduler.name}",
            "tenants": sorted(groups),
            "rows_by_tenant": {t: alloc[t] for t in sorted(alloc)},
            "tokens_by_tenant": {t: used[t] for t in sorted(used)},
        },
    )
