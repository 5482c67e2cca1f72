"""Slotted ConcatBatching: slot-size policies and slot-wise packing.

Paper §4.2 divides every batch row into fixed-size *slots*; self-attention
is computed per slot (Eq. 8) so the off-diagonal score-matrix work that
pure ConcatBatching computes-then-masks is never computed at all.  Slots
also unlock *early memory cleaning* (§4.2.2) because a finished slot is a
separable tensor.

Algorithm 2 chooses the slot size ``z`` as the longest request in the
utility-dominant set ``H^U`` so that no high-utility request is ever
rejected for being longer than a slot; this module implements that policy
plus alternatives used in ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.core.layout import BatchLayout, RowLayout, SlotLayout
from repro.core.packing import first_fit
from repro.types import Request

__all__ = [
    "SlottedPackingResult",
    "slot_size_from_utility_dominant",
    "slot_size_fixed_count",
    "divide_row_into_slots",
    "pack_into_slots",
]


@dataclass
class SlottedPackingResult:
    """Outcome of slot-wise packing."""

    layout: BatchLayout
    slot_size: int
    packed: list[Request] = field(default_factory=list)
    rejected: list[Request] = field(default_factory=list)

    @property
    def slots_per_row(self) -> int:
        row = self.layout.rows[0]
        return len(row.slots) if row.slots else 1


def slot_size_from_utility_dominant(
    utility_dominant: Sequence[Request], row_length: int
) -> int:
    """Algorithm 2, lines 3–4: slot size = longest request in ``H^U``.

    Guarantees no utility-dominant request is discarded by the slot limit.
    Falls back to the full row when ``H^U`` is empty.
    """
    if not utility_dominant:
        return row_length
    z = max(r.length for r in utility_dominant)
    return min(max(z, 1), row_length)


def slot_size_fixed_count(num_slots: int, row_length: int) -> int:
    """Ablation policy: divide the row into ``num_slots`` equal slots.

    This is the policy swept in the paper's Figs. 13–14 (speedup vs number
    of slots at fixed row length 400).
    """
    if num_slots < 1:
        raise ValueError("num_slots must be >= 1")
    return max(1, row_length // num_slots)


def divide_row_into_slots(row: RowLayout, slot_size: int) -> list[SlotLayout]:
    """Algorithm 2, line 5: cut a row into contiguous ``slot_size`` slots.

    The trailing remainder (if ``capacity % slot_size != 0``) becomes a
    final shorter slot so no capacity is silently dropped.
    """
    if slot_size < 1:
        raise ValueError("slot_size must be >= 1")
    slots: list[SlotLayout] = []
    start = 0
    while start < row.capacity:
        size = min(slot_size, row.capacity - start)
        slots.append(SlotLayout(start=start, size=size))
        start += size
    return slots


def pack_into_slots(
    requests: Sequence[Request],
    num_rows: int,
    row_length: int,
    slot_size: int,
) -> SlottedPackingResult:
    """Algorithm 2, lines 6–8: greedily place requests into slots.

    Requests are taken in the given order (the scheduler's preference
    order) and placed into the first slot — scanning rows in order, slots
    within a row in order — that still has room.  Multiple short requests
    may share a slot, exactly as in pure concatenation (paper §4.2.1).
    Requests longer than ``slot_size`` are rejected: that is the cost of
    slotting the paper's slot-size policy is designed to bound.
    """
    layout = BatchLayout(num_rows=num_rows, row_length=row_length, scheme="slotted")
    # Rows in order, slots within a row in order: one flat first-fit.
    bins: list[tuple[RowLayout, SlotLayout]] = []
    for row in layout.rows:
        row.slots = divide_row_into_slots(row, slot_size)
        bins.extend((row, slot) for slot in row.slots)
    free = [slot.size for _, slot in bins]
    largest = max(free, default=0)
    start_at = [0] * (largest + 1)
    packed: list[Request] = []
    rejected: list[Request] = []
    for req in requests:
        length = req.length
        k = first_fit(free, start_at, length) if length <= largest else len(bins)
        if k == len(bins):
            rejected.append(req)
            continue
        row, slot = bins[k]
        row.segments.append(slot.add(req))
        free[k] -= length
        packed.append(req)
    return SlottedPackingResult(
        layout=layout, slot_size=slot_size, packed=packed, rejected=rejected
    )
