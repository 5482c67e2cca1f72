"""Batch layout descriptions for ConcatBatching.

A *layout* records where each request lives inside a batch tensor:

- a :class:`Segment` is one request's contiguous span inside a row,
- a :class:`RowLayout` is one batch row (capacity ``L`` tokens) holding one
  or more segments (NaiveBatching holds exactly one; ConcatBatching holds
  many),
- a :class:`SlotLayout` optionally subdivides a row into fixed-size slots
  (slotted ConcatBatching, paper §4.2),
- a :class:`BatchLayout` is the full ``B × L`` batch.

Layouts are the single source of truth consumed by the mask builders
(:mod:`repro.core.masks`), the separate positional encoding
(:mod:`repro.core.positional`), the engines and the memory simulator.

Rows and slots keep a *running* occupancy: ``used`` / ``free`` /
``can_fit`` / ``add`` are O(1), because a saturated serving loop packs a
few hundred requests into 64 rows on every scheduling decision and
first-fit probes occupancy once per (request, row) pair.  The hot
numeric paths operate on the vectorised ``segment_id_matrix`` /
``position_matrix`` this module produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from repro.types import Request

__all__ = ["Segment", "SegmentIndex", "RowLayout", "SlotLayout", "BatchLayout"]


@dataclass(frozen=True)
class Segment:
    """One request's span within a batch row: ``[start, start + length)``."""

    request: Request
    start: int

    @property
    def length(self) -> int:
        return self.request.length

    @property
    def end(self) -> int:
        return self.start + self.length

    def positions(self) -> np.ndarray:
        """Within-request positions ``0 .. length-1`` (separate PE)."""
        return np.arange(self.length, dtype=np.int64)


class SegmentIndex(NamedTuple):
    """A layout's segments as three aligned int arrays, in row-major order.

    The lowering the packed encoder and the decode loop share: both work
    on the useful tokens only, request after request, and this says
    where each request's tokens sit in the ``(B, W)`` batch tensor.
    """

    rows: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray

    def coords(self, order: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
        """``(row, column)`` of every useful token, segment after segment.

        ``order`` takes the segments in another order than row-major.
        Indexing a ``(B, W, ...)`` array with the pair packs it to
        ``(T, ...)``; assigning through it scatters back.
        """
        rows, starts, lengths = self if order is None else (a[order] for a in self)
        first = np.cumsum(lengths) - lengths
        cols = np.arange(lengths.sum()) + np.repeat(starts - first, lengths)
        return np.repeat(rows, lengths), cols


class _Occupancy:
    """Running token count and extent of a ``segments`` list (rows, slots).

    ``segments`` stays a public list that callers may append to directly
    (slot packing puts one segment in a slot *and* in its row) or assign
    afresh, so every read reconciles the figures with the list: one that
    grew is caught up on its new tail, one that shrank or is a different
    list is recounted.  Replacing a segment in place is not seen — build
    a new row instead.
    """

    segments: list[Segment]
    _used: int
    _extent: int
    _counted: int
    _counted_list: Optional[list[Segment]]

    def _sync(self) -> None:
        """Bring ``_used`` and ``_extent`` up to date with ``segments``."""
        segs = self.segments
        if segs is not self._counted_list or len(segs) < self._counted:
            self._counted_list, self._used, self._extent, self._counted = segs, 0, 0, 0
        tail = segs[self._counted :]
        if tail:
            self._used += sum(s.request.length for s in tail)
            self._extent = max(self._extent, max(s.end for s in tail))
            self._counted = len(segs)

    @property
    def used(self) -> int:
        """Tokens occupied by the segments (O(1) between mutations)."""
        if self.segments is not self._counted_list or len(self.segments) != self._counted:
            self._sync()
        return self._used

    def _append(self, seg: Segment) -> None:
        """Append a segment placed at ``used``, which the caller just read."""
        self.segments.append(seg)
        length = seg.request.length
        self._used += length
        if seg.start + length > self._extent:
            self._extent = seg.start + length
        self._counted += 1


@dataclass
class SlotLayout(_Occupancy):
    """A fixed-width slot inside a row (slotted ConcatBatching).

    ``start``/``size`` are token offsets within the row.  Segments placed in
    the slot must fit inside ``[start, start + size)``.
    """

    start: int
    size: int
    segments: list[Segment] = field(default_factory=list)
    _used: int = field(default=0, init=False, repr=False, compare=False)
    _extent: int = field(default=0, init=False, repr=False, compare=False)
    _counted: int = field(default=0, init=False, repr=False, compare=False)
    _counted_list: Optional[list[Segment]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def end(self) -> int:
        return self.start + self.size

    @property
    def free(self) -> int:
        return self.size - self.used

    def can_fit(self, length: int) -> bool:
        return length <= self.free

    def add(self, request: Request) -> Segment:
        used = self.used
        if request.length > self.size - used:
            raise ValueError(
                f"request of length {request.length} does not fit in slot "
                f"with {self.size - used} free tokens"
            )
        seg = Segment(request=request, start=self.start + used)
        self._append(seg)
        return seg


@dataclass
class RowLayout(_Occupancy):
    """One batch row of capacity ``L`` tokens holding packed segments."""

    capacity: int
    segments: list[Segment] = field(default_factory=list)
    slots: Optional[list[SlotLayout]] = None
    _used: int = field(default=0, init=False, repr=False, compare=False)
    _extent: int = field(default=0, init=False, repr=False, compare=False)
    _counted: int = field(default=0, init=False, repr=False, compare=False)
    _counted_list: Optional[list[Segment]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def extent(self) -> int:
        """Highest occupied token index + 1 (≥ ``used`` under slotting,
        where segments sit at slot offsets and need not be contiguous).
        O(1) between mutations, like ``used``."""
        if self.segments is not self._counted_list or len(self.segments) != self._counted:
            self._sync()
        return self._extent

    @property
    def free(self) -> int:
        return self.capacity - self.used

    @property
    def padding(self) -> int:
        """Padded (wasted) token positions in this row at width=capacity."""
        return self.free

    @property
    def num_requests(self) -> int:
        return len(self.segments)

    def can_fit(self, length: int) -> bool:
        return length <= self.free

    def add(self, request: Request) -> Segment:
        """Append a request at the current end of the row."""
        used = self.used
        if request.length > self.capacity - used:
            raise ValueError(
                f"request of length {request.length} does not fit in row "
                f"with {self.capacity - used} free tokens"
            )
        seg = Segment(request=request, start=used)
        self._append(seg)
        return seg

    def requests(self) -> list[Request]:
        return [s.request for s in self.segments]

    def validate(self) -> None:
        """Check non-overlap, ordering and capacity invariants."""
        pos = 0
        for seg in sorted(self.segments, key=lambda s: s.start):
            if seg.start < pos:
                raise ValueError("overlapping segments in row")
            pos = seg.end
        if pos > self.capacity:
            raise ValueError(
                f"segments extend to {pos} > row capacity {self.capacity}"
            )
        if self.slots is not None:
            for slot in self.slots:
                if slot.end > self.capacity:
                    raise ValueError("slot extends past row capacity")
                for seg in slot.segments:
                    if seg.start < slot.start or seg.end > slot.end:
                        raise ValueError("segment escapes its slot")


@dataclass
class BatchLayout:
    """A full batch: ``num_rows`` rows of ``row_length`` tokens each.

    The layout is *scheme-agnostic*: NaiveBatching produces one segment per
    row, TurboBatching produces one segment per row with a reduced width,
    and ConcatBatching produces many segments per row (optionally grouped
    in slots).  Downstream code (masks, PE, engines, memory accounting)
    only ever reads the layout.
    """

    num_rows: int
    row_length: int
    rows: list[RowLayout] = field(default_factory=list)
    scheme: str = "concat"

    def __post_init__(self) -> None:
        if not self.rows:
            self.rows = [
                RowLayout(capacity=self.row_length) for _ in range(self.num_rows)
            ]
        if len(self.rows) != self.num_rows:
            raise ValueError(
                f"{len(self.rows)} rows provided for num_rows={self.num_rows}"
            )

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #

    def __iter__(self) -> Iterator[RowLayout]:
        return iter(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.row_length)

    def requests(self) -> list[Request]:
        """All packed requests in row-major order."""
        return [seg.request for row in self.rows for seg in row.segments]

    def segments(self) -> list[tuple[int, Segment]]:
        """All ``(row_index, segment)`` pairs in row-major order."""
        return [(k, seg) for k, row in enumerate(self.rows) for seg in row.segments]

    def segment_index(self) -> SegmentIndex:
        """Row, start and length of every segment, in row-major order."""
        segments = self.segments()
        return SegmentIndex(
            np.array([k for k, _ in segments], dtype=np.int64),
            np.array([seg.start for _, seg in segments], dtype=np.int64),
            np.array([seg.length for _, seg in segments], dtype=np.int64),
        )

    @property
    def num_requests(self) -> int:
        return sum(row.num_requests for row in self.rows)

    @property
    def useful_tokens(self) -> int:
        return sum(row.used for row in self.rows)

    @property
    def padded_tokens(self) -> int:
        """Padding at the batch's *effective* width (see ``effective_width``)."""
        w = self.effective_width
        return self.num_rows * w - self.useful_tokens

    @property
    def effective_width(self) -> int:
        """Width the batch tensor is actually materialised at.

        NaiveBatching pads to the longest request, not to ``row_length``;
        ConcatBatching rows are trimmed to the widest row's occupied
        extent (which, under slotting, can exceed its token count).
        """
        return max((row.extent for row in self.rows), default=0)

    @property
    def padding_ratio(self) -> float:
        total = self.num_rows * self.effective_width
        return 0.0 if total == 0 else self.padded_tokens / total

    def validate(self) -> None:
        for row in self.rows:
            row.validate()
        seen: set[int] = set()
        for req in self.requests():
            if req.request_id in seen:
                raise ValueError(f"request {req.request_id} packed twice")
            seen.add(req.request_id)

    # ------------------------------------------------------------------ #
    # Vectorised views consumed by the numeric code
    # ------------------------------------------------------------------ #

    def segment_id_matrix(self, width: Optional[int] = None) -> np.ndarray:
        """``(B, W)`` int matrix mapping each token position to a request.

        Entries are the *request id* of the segment covering the position,
        or ``-1`` for padding.  This is the canonical input for the mask
        builders: two positions attend to each other iff their entries are
        equal and non-negative.
        """
        w = self.effective_width if width is None else width
        out = np.full((self.num_rows, w), -1, dtype=np.int64)
        for k, row in enumerate(self.rows):
            for seg in row.segments:
                out[k, seg.start : seg.end] = seg.request.request_id
        return out

    def position_matrix(self, width: Optional[int] = None) -> np.ndarray:
        """``(B, W)`` matrix of *separate* positional-encoding positions.

        Each segment restarts at position 0 (paper §4.1.1, Fig. 5b).
        Padding positions get position 0 (they are masked out anyway).
        """
        w = self.effective_width if width is None else width
        out = np.zeros((self.num_rows, w), dtype=np.int64)
        for k, row in enumerate(self.rows):
            for seg in row.segments:
                out[k, seg.start : seg.end] = np.arange(seg.length)
        return out

    def naive_position_matrix(self, width: Optional[int] = None) -> np.ndarray:
        """``(B, W)`` matrix of *traditional* row-wise positions (Fig. 5a).

        Used to demonstrate why the default PE is wrong under
        concatenation; every position in a row is numbered consecutively
        regardless of segment boundaries.
        """
        w = self.effective_width if width is None else width
        return np.tile(np.arange(w, dtype=np.int64), (self.num_rows, 1))

    def token_matrix(
        self, width: Optional[int] = None, pad_token: int = 0
    ) -> np.ndarray:
        """``(B, W)`` token-id matrix.  Requires every request to carry tokens."""
        w = self.effective_width if width is None else width
        out = np.full((self.num_rows, w), pad_token, dtype=np.int64)
        for k, row in enumerate(self.rows):
            for seg in row.segments:
                if seg.request.tokens is None:
                    raise ValueError(
                        f"request {seg.request.request_id} has no tokens; "
                        "real-execution engines need concrete token ids"
                    )
                out[k, seg.start : seg.end] = np.asarray(
                    seg.request.tokens, dtype=np.int64
                )
        return out

    def slot_boundaries(self) -> list[list[tuple[int, int]]]:
        """Per-row ``(start, end)`` slot spans; one whole-row slot if unslotted."""
        out: list[list[tuple[int, int]]] = []
        w = self.effective_width
        for row in self.rows:
            if row.slots:
                out.append([(s.start, s.end) for s in row.slots])
            else:
                out.append([(0, w)])
        return out

    def shape_fingerprint(self) -> tuple:
        """Hashable shape identity: ``(B, W, slot spans)``.

        Two layouts with equal fingerprints cost exactly the same under
        any :class:`~repro.engine.cost_model.GPUCostModel` — the model
        reads nothing else — which is what makes its memoization sound.
        Batch sweeps re-pack the same shapes thousands of times, so the
        fingerprint is the cache key that collapses them.
        """
        w = self.effective_width
        spans = tuple(
            tuple((s.start, s.end) for s in row.slots)
            if row.slots
            else ((0, w),)
            for row in self.rows
        )
        return (self.num_rows, w, spans)

    # ------------------------------------------------------------------ #
    # Constructors for the baseline schemes
    # ------------------------------------------------------------------ #

    @staticmethod
    def naive(requests: Sequence[Request], num_rows: Optional[int] = None) -> "BatchLayout":
        """NaiveBatching (TNB): one request per row, padded to the longest."""
        reqs = list(requests)
        if not reqs:
            raise ValueError("cannot build a layout from zero requests")
        b = len(reqs) if num_rows is None else num_rows
        if b < len(reqs):
            raise ValueError(f"{len(reqs)} requests do not fit in {b} rows")
        width = max(r.length for r in reqs)
        layout = BatchLayout(num_rows=b, row_length=width, scheme="naive")
        for row, req in zip(layout.rows, reqs):
            row.add(req)
        return layout

    @staticmethod
    def single_per_row(
        requests: Sequence[Request], row_length: int
    ) -> "BatchLayout":
        """One request per row at a fixed row width (used by TTB groups)."""
        reqs = list(requests)
        if any(r.length > row_length for r in reqs):
            raise ValueError("a request exceeds the row length")
        layout = BatchLayout(
            num_rows=len(reqs), row_length=row_length, scheme="turbo"
        )
        for row, req in zip(layout.rows, reqs):
            row.add(req)
        return layout
