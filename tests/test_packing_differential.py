"""Packers on a free list ≡ the recompute-everything packers.

``pack_in_order``, ``pack_first_fit``, ``pack_best_fit_decreasing`` and
``pack_into_slots`` probe an integer free list with a resume cursor and
rows keep a running ``used``; the oracles in ``tests/oracles/packing.py``
re-sum every row on every probe and place with a bare
``segments.append``.  Layouts, ``packed`` and ``rejected`` must be
identical, and the running occupancy must agree with a recount however
the segments got there.
"""

import pytest

from repro.core.layout import RowLayout, Segment, SlotLayout
from repro.core.packing import (
    pack_best_fit_decreasing,
    pack_first_fit,
    pack_in_order,
)
from repro.core.slotting import pack_into_slots
from repro.rng import ensure_rng
from repro.types import Request
from tests.oracles.packing import (
    naive_used,
    reference_pack_best_fit_decreasing,
    reference_pack_first_fit,
    reference_pack_in_order,
    reference_pack_into_slots,
)

PACKERS = [
    (pack_in_order, reference_pack_in_order),
    (pack_first_fit, reference_pack_first_fit),
    (pack_best_fit_decreasing, reference_pack_best_fit_decreasing),
]


def _ids(requests):
    return [r.request_id for r in requests]


def _placement(layout):
    """Everything a layout says: row, slot spans, segment ids and starts."""
    return [
        (
            [(seg.request.request_id, seg.start) for seg in row.segments],
            None
            if row.slots is None
            else [
                (slot.start, slot.size, [(s.request.request_id, s.start) for s in slot.segments])
                for slot in row.slots
            ],
        )
        for row in layout.rows
    ]


def _assert_same_result(fast, ref):
    assert _placement(fast.layout) == _placement(ref.layout)
    assert _ids(fast.packed) == _ids(ref.packed)
    assert _ids(fast.rejected) == _ids(ref.rejected)
    for holder_rows in (fast.layout.rows, ref.layout.rows):
        for row in holder_rows:
            # Production rows were filled through add(), oracle rows
            # through segments.append: the running total follows both.
            assert row.used == naive_used(row)
            assert row.free == row.capacity - naive_used(row)
            for slot in row.slots or []:
                assert slot.used == naive_used(slot)
                assert slot.free == slot.size - naive_used(slot)
    fast.layout.validate()


def _requests(rng, n, longest):
    return [
        Request(request_id=i, length=int(rng.integers(1, longest + 1)))
        for i in range(n)
    ]


class TestPackersAgainstOracle:
    @pytest.mark.parametrize("fast,ref", PACKERS)
    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances(self, fast, ref, seed):
        rng = ensure_rng(seed)
        for _ in range(25):
            num_rows = int(rng.integers(1, 12))
            row_length = int(rng.choice([4, 9, 16, 40]))
            # Some requests longer than a row, and more tokens than fit.
            reqs = _requests(rng, int(rng.integers(0, 60)), row_length + 3)
            _assert_same_result(
                fast(reqs, num_rows, row_length), ref(reqs, num_rows, row_length)
            )

    @pytest.mark.parametrize("fast,ref", PACKERS)
    def test_exact_fills_and_unit_requests(self, fast, ref):
        # Rows that fill to exactly zero free, then requests of length 1:
        # the cursor must skip the full rows and still find the gaps.
        lengths = [10, 10, 7, 3, 9, 1, 1, 1, 10, 2, 1, 5, 5]
        reqs = [Request(request_id=i, length=n) for i, n in enumerate(lengths)]
        _assert_same_result(fast(reqs, 6, 10), ref(reqs, 6, 10))

    @pytest.mark.parametrize("fast,ref", PACKERS)
    def test_saturated_selection_shape(self, fast, ref):
        # What DAS hands the engine: ~5 requests per 100-token row, 64 rows.
        rng = ensure_rng(11)
        reqs = [
            Request(request_id=i, length=int(min(100, max(3, rng.normal(20, 20)))))
            for i in range(330)
        ]
        _assert_same_result(fast(reqs, 64, 100), ref(reqs, 64, 100))

    @pytest.mark.parametrize("seed", range(6))
    def test_pack_into_slots(self, seed):
        rng = ensure_rng(100 + seed)
        for _ in range(25):
            num_rows = int(rng.integers(1, 8))
            row_length = int(rng.choice([8, 10, 24, 50]))
            # Slot sizes that do and do not divide the row (short last slot).
            slot_size = int(rng.integers(1, row_length + 1))
            reqs = _requests(rng, int(rng.integers(0, 50)), slot_size + 2)
            _assert_same_result(
                pack_into_slots(reqs, num_rows, row_length, slot_size),
                reference_pack_into_slots(reqs, num_rows, row_length, slot_size),
            )


class TestRunningOccupancy:
    """``used`` is a running total; ``segments`` is still a public list."""

    def test_add_after_direct_append_starts_past_it(self):
        row = RowLayout(capacity=12)
        row.add(Request(request_id=0, length=3))
        row.segments.append(Segment(Request(request_id=1, length=4), start=3))
        assert row.used == 7 and row.free == 5
        assert not row.can_fit(6)
        seg = row.add(Request(request_id=2, length=5))
        assert seg.start == 7
        assert row.used == 12
        with pytest.raises(ValueError, match="does not fit"):
            row.add(Request(request_id=3, length=1))

    def test_assigned_and_shrunk_lists_are_recounted(self):
        row = RowLayout(capacity=20)
        for i in range(3):
            row.add(Request(request_id=i, length=4))
        assert row.used == 12
        row.segments.pop()
        assert row.used == 8
        row.segments = [Segment(Request(request_id=9, length=5), start=0)]
        assert row.used == 5
        # A different list that is *longer* than what was counted.
        row.segments = [
            Segment(Request(request_id=10 + i, length=2), start=2 * i) for i in range(4)
        ]
        assert row.used == 8
        row.segments.clear()
        assert row.used == 0 and row.free == 20

    def test_constructed_with_segments(self):
        segs = [Segment(Request(request_id=0, length=6), start=0)]
        assert RowLayout(capacity=10, segments=segs).free == 4
        assert SlotLayout(start=2, size=8, segments=list(segs)).free == 2

    def test_slot_follows_direct_append(self):
        slot = SlotLayout(start=10, size=8)
        slot.segments.append(Segment(Request(request_id=0, length=3), start=10))
        assert slot.used == 3
        assert slot.add(Request(request_id=1, length=5)).start == 13
        assert slot.free == 0

    def test_running_total_is_not_part_of_equality(self):
        a, b = RowLayout(capacity=8), RowLayout(capacity=8)
        seg = Segment(Request(request_id=0, length=2), start=0)
        a.add(seg.request)
        b.segments.append(seg)
        assert a == b  # b's total has not been read yet
        assert "_used" not in repr(a)
