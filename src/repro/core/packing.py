"""Row-packing algorithms for ConcatBatching.

Given a candidate set of requests and a batch geometry (``B`` rows ×
``L`` tokens), these functions decide *where* each request is placed.
The scheduler (paper §5) decides *which* requests are candidates; packing
is the mechanical bin-packing step that follows.

Three policies are provided:

- :func:`pack_in_order` — append requests row by row in the given order
  (this is what Algorithm 1 implies: the scheduler emits an ordered
  per-row selection and requests are concatenated as chosen),
- :func:`pack_first_fit` — classic first-fit: each request goes into the
  first row with space,
- :func:`pack_best_fit_decreasing` — best-fit on length-sorted requests;
  the strongest padding minimiser, used in ablations.

All of them respect Eq. 11 (per-row token budget) and never split a
request across rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.layout import BatchLayout
from repro.types import Request

__all__ = [
    "PackingResult",
    "pack_in_order",
    "pack_first_fit",
    "pack_best_fit_decreasing",
]


@dataclass
class PackingResult:
    """Outcome of packing: the layout plus requests that did not fit."""

    layout: BatchLayout
    packed: list[Request] = field(default_factory=list)
    rejected: list[Request] = field(default_factory=list)

    @property
    def num_packed(self) -> int:
        return len(self.packed)

    @property
    def num_rejected(self) -> int:
        return len(self.rejected)


def _new_layout(num_rows: int, row_length: int) -> BatchLayout:
    return BatchLayout(num_rows=num_rows, row_length=row_length, scheme="concat")


def pack_in_order(
    requests: Sequence[Request], num_rows: int, row_length: int
) -> PackingResult:
    """Fill row 0 until full, then row 1, ... preserving request order.

    A request that does not fit in the current row *closes* that row and
    opens the next (no back-filling) — this mirrors how Algorithm 1 builds
    each row from its sorted candidate sequence.  Requests longer than
    ``row_length`` are rejected outright.
    """
    layout = _new_layout(num_rows, row_length)
    packed: list[Request] = []
    rejected: list[Request] = []
    row_idx = 0
    free = row_length
    for req in requests:
        length = req.length
        if length > row_length:
            rejected.append(req)
            continue
        if length > free:
            # Every later row is still empty, so the next one fits.
            row_idx += 1
            free = row_length
        if row_idx >= num_rows:
            rejected.append(req)
            continue
        layout.rows[row_idx].add(req)
        free -= length
        packed.append(req)
    return PackingResult(layout=layout, packed=packed, rejected=rejected)


def first_fit(free: list[int], start_at: list[int], length: int) -> int:
    """Lowest index ``k`` with ``free[k] >= length``, or ``len(free)``.

    ``free`` only ever shrinks while a batch is packed, so the first bin
    that fits a given length never moves left: ``start_at[length]``
    remembers where the last probe for that length ended and the next
    one resumes there.  All probes of one pack together cost
    O(requests + lengths × bins) integer comparisons instead of
    O(requests × bins) occupancy sums.
    """
    k = start_at[length]
    n = len(free)
    while k < n and free[k] < length:
        k += 1
    start_at[length] = k
    return k


def pack_first_fit(
    requests: Sequence[Request], num_rows: int, row_length: int
) -> PackingResult:
    """First-fit: each request goes to the lowest-index row with space."""
    layout = _new_layout(num_rows, row_length)
    rows = layout.rows
    packed: list[Request] = []
    rejected: list[Request] = []
    free = [row_length] * num_rows
    start_at = [0] * (row_length + 1)
    for req in requests:
        length = req.length
        if length > row_length:
            rejected.append(req)
            continue
        k = first_fit(free, start_at, length)
        if k == num_rows:
            rejected.append(req)
        else:
            rows[k].add(req)
            free[k] -= length
            packed.append(req)
    return PackingResult(layout=layout, packed=packed, rejected=rejected)


def pack_best_fit_decreasing(
    requests: Sequence[Request], num_rows: int, row_length: int
) -> PackingResult:
    """Best-fit decreasing: sort by length desc, place in tightest row.

    BFD is the strongest of the classic bin-packing heuristics (≤ 11/9 OPT
    + 4 bins); we use it in ablation benchmarks to quantify how much the
    simpler in-order policy of Algorithm 1 leaves on the table.
    """
    layout = _new_layout(num_rows, row_length)
    packed: list[Request] = []
    rejected: list[Request] = []
    free = [row_length] * num_rows
    for req in sorted(requests, key=lambda r: r.length, reverse=True):
        length = req.length
        # Tightest row that fits, lowest index among equals.
        spare, k = min(
            ((f, k) for k, f in enumerate(free) if f >= length),
            default=(0, num_rows),
        )
        if k == num_rows:
            rejected.append(req)
            continue
        layout.rows[k].add(req)
        free[k] = spare - length
        packed.append(req)
    return PackingResult(layout=layout, packed=packed, rejected=rejected)
