"""Slotted DAS — Algorithm 2.

Runs Algorithm 1 to obtain per-row candidate sets ``{H_tk}``, derives the
slot size from the longest request in the union of utility-dominant sets
``H^U`` (so no utility-dominant request is discarded by the slot limit),
then re-packs each row slot-wise.  Requests from the deadline-aware /
back-fill parts that exceed the slot size are discarded — the
flexibility/redundancy trade-off §5.3 discusses.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import BatchConfig, SchedulerConfig
from repro.core.slotting import (
    divide_row_into_slots,
    slot_size_from_utility_dominant,
)
from repro.core.layout import RowLayout
from repro.scheduling.base import Scheduler, SchedulingDecision
from repro.scheduling.das import DASScheduler
from repro.types import Request

__all__ = ["SlottedDASScheduler"]


class SlottedDASScheduler(Scheduler):
    name = "slotted_das"

    def __init__(
        self,
        batch: BatchConfig,
        config: Optional[SchedulerConfig] = None,
    ):
        super().__init__(batch)
        self.config = config or SchedulerConfig()
        self._das = DASScheduler(batch, self.config, record_parts=True)

    def _select(
        self, waiting: Sequence[Request], now: float
    ) -> SchedulingDecision:
        # Line 2: invoke DAS.
        base = self._das.select(waiting, now)
        # Line 3: utility-dominant union H^U.
        h_u = [r for n_u, _ in self._das.last_parts for r in n_u]
        # Line 4: slot size = longest task in H^U.
        z = slot_size_from_utility_dominant(h_u, self.batch.row_length)

        # Lines 5–8: re-pack each row's tasks into slots greedily.
        rows: list[list[Request]] = []
        discarded: list[Request] = []
        for row_requests in base.rows:
            row = RowLayout(capacity=self.batch.row_length)
            row.slots = divide_row_into_slots(row, z)
            packed: list[Request] = []
            # Longest-first keeps Algorithm 2's guarantee: a request no
            # longer than the slot size is never lost to fragmentation
            # caused by shorter requests placed before it.
            row_requests = sorted(
                row_requests, key=lambda r: (-r.length, r.request_id)
            )
            for req in row_requests:
                target = next(
                    (s for s in row.slots if s.can_fit(req.length)), None
                )
                if target is None:
                    discarded.append(req)
                else:
                    target.add(req)
                    packed.append(req)
            rows.append(packed)

        return SchedulingDecision(
            rows=rows,
            slot_size=z,
            discarded=discarded,
            info={
                **base.info,
                "scheduler": self.name,
                "slot_size": z,
                "num_discarded": len(discarded),
            },
        )
