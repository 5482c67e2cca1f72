"""The original packers over a recompute-everything occupancy, as oracles.

Each probe re-sums the row's (or slot's) segments and each placement is
a bare ``segments.append`` — no running totals, no free list, no cursor.
``pack_*`` and ``pack_into_slots`` must produce the same layouts,
``packed`` and ``rejected`` lists (``tests/test_packing_differential.py``).
Because these oracles only ever *append* to ``segments``, comparing
``row.used`` / ``row.free`` on their layouts also checks that the
production rows' running occupancy follows direct appends.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.layout import BatchLayout, Segment
from repro.core.packing import PackingResult
from repro.core.slotting import SlottedPackingResult, divide_row_into_slots
from repro.types import Request

__all__ = [
    "naive_used",
    "reference_pack_in_order",
    "reference_pack_first_fit",
    "reference_pack_best_fit_decreasing",
    "reference_pack_into_slots",
]


def naive_used(holder) -> int:
    """Occupancy of a row or slot, recomputed from its segments."""
    return sum(seg.request.length for seg in holder.segments)


def _fits(row, length: int) -> bool:
    return length <= row.capacity - naive_used(row)


def _place(row, req: Request) -> None:
    row.segments.append(Segment(request=req, start=naive_used(row)))


def reference_pack_in_order(
    requests: Sequence[Request], num_rows: int, row_length: int
) -> PackingResult:
    layout = BatchLayout(num_rows=num_rows, row_length=row_length, scheme="concat")
    packed: list[Request] = []
    rejected: list[Request] = []
    row_idx = 0
    for req in requests:
        if req.length > row_length:
            rejected.append(req)
            continue
        while row_idx < num_rows and not _fits(layout.rows[row_idx], req.length):
            row_idx += 1
        if row_idx >= num_rows:
            rejected.append(req)
            continue
        _place(layout.rows[row_idx], req)
        packed.append(req)
    return PackingResult(layout=layout, packed=packed, rejected=rejected)


def reference_pack_first_fit(
    requests: Sequence[Request], num_rows: int, row_length: int
) -> PackingResult:
    layout = BatchLayout(num_rows=num_rows, row_length=row_length, scheme="concat")
    packed: list[Request] = []
    rejected: list[Request] = []
    for req in requests:
        if req.length > row_length:
            rejected.append(req)
            continue
        target = next((row for row in layout.rows if _fits(row, req.length)), None)
        if target is None:
            rejected.append(req)
        else:
            _place(target, req)
            packed.append(req)
    return PackingResult(layout=layout, packed=packed, rejected=rejected)


def reference_pack_best_fit_decreasing(
    requests: Sequence[Request], num_rows: int, row_length: int
) -> PackingResult:
    layout = BatchLayout(num_rows=num_rows, row_length=row_length, scheme="concat")
    packed: list[Request] = []
    rejected: list[Request] = []
    for req in sorted(requests, key=lambda r: r.length, reverse=True):
        if req.length > row_length:
            rejected.append(req)
            continue
        candidates = [row for row in layout.rows if _fits(row, req.length)]
        if not candidates:
            rejected.append(req)
            continue
        target = min(candidates, key=lambda row: row.capacity - naive_used(row))
        _place(target, req)
        packed.append(req)
    return PackingResult(layout=layout, packed=packed, rejected=rejected)


def reference_pack_into_slots(
    requests: Sequence[Request], num_rows: int, row_length: int, slot_size: int
) -> SlottedPackingResult:
    layout = BatchLayout(num_rows=num_rows, row_length=row_length, scheme="slotted")
    for row in layout.rows:
        row.slots = divide_row_into_slots(row, slot_size)
    packed: list[Request] = []
    rejected: list[Request] = []
    for req in requests:
        placed = False
        for row in layout.rows:
            for slot in row.slots:
                if req.length <= slot.size - naive_used(slot):
                    seg = Segment(request=req, start=slot.start + naive_used(slot))
                    slot.segments.append(seg)
                    row.segments.append(seg)
                    packed.append(req)
                    placed = True
                    break
            if placed:
                break
        if not placed:
            rejected.append(req)
    return SlottedPackingResult(
        layout=layout, slot_size=slot_size, packed=packed, rejected=rejected
    )
