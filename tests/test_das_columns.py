"""Column-based ``DASScheduler.select`` ≡ the re-sort-per-row oracle, widened.

``tests/test_das_fastpath.py`` compares the two on small random states.
These are the shapes where walking flat columns (one utility order, one
EDF ordering, an ``alive`` mask, a ``bisect`` threshold cut) is most
likely to diverge from re-sorting request objects row by row: deep
queues, utilities that are not monotone in length, deadline ties,
utilities exactly on the ``q·v̄`` threshold, unservable requests in the
waiting set, and inputs that do not come from the queue.  Rows, ``info``
and the recorded (N^U, N^D) parts must match exactly.
"""

import pytest

from repro.config import BatchConfig, SchedulerConfig
from repro.rng import ensure_rng
from repro.scheduling import das
from repro.scheduling.das import DASScheduler
from repro.scheduling.queue import RequestQueue, utility_columns
from repro.types import Request
from tests.oracles.das import das_scheduler


def _ids(requests):
    return [r.request_id for r in requests]


def _assert_same_decision(batch, waiting, cfg=None, now=0.0):
    fast = DASScheduler(batch, cfg, record_parts=True)
    ref = das_scheduler(batch, cfg, record_parts=True, reference=True)
    df = fast.select(waiting, now)
    dr = ref.select(waiting, now)
    assert [_ids(row) for row in df.rows] == [_ids(row) for row in dr.rows]
    assert df.info == dr.info
    assert [(_ids(u), _ids(d)) for u, d in fast.last_parts] == [
        (_ids(u), _ids(d)) for u, d in ref.last_parts
    ]
    return df


def _weighted(rng, n, longest, *, deadlines=None):
    """Utilities ``w/l`` that are not monotone in length (tenancy weights)."""
    return [
        Request(
            request_id=i,
            length=int(rng.integers(1, longest + 1)),
            arrival=0.0,
            deadline=float(rng.uniform(0.5, 30.0))
            if deadlines is None
            else float(rng.choice(deadlines)),
            weight=float(rng.choice([0.25, 0.5, 1.0, 1.0, 2.0, 4.0])),
        )
        for i in range(n)
    ]


class TestDeepQueues:
    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_utilities_at_depth(self, seed):
        rng = ensure_rng(seed)
        waiting = _weighted(rng, 2000 + 150 * seed, 60)
        df = _assert_same_decision(BatchConfig(num_rows=64, row_length=100), waiting)
        assert len(df.rows) == 64

    def test_weighted_utilities_other_eta_q(self):
        rng = ensure_rng(7)
        waiting = _weighted(rng, 2000, 40)
        for eta, q in [(0.1, 0.9), (0.9, 0.1), (0.3, 0.3)]:
            _assert_same_decision(
                BatchConfig(num_rows=24, row_length=64),
                waiting,
                SchedulerConfig(eta=eta, q=q),
            )

    def test_through_the_queue(self):
        # The production path: RequestQueue.waiting() → a plain list.
        rng = ensure_rng(3)
        queue = RequestQueue()
        queue.extend(_weighted(rng, 2200, 50))
        view = queue.waiting(0.25)
        assert type(view) is list
        _assert_same_decision(BatchConfig(num_rows=64, row_length=100), view, now=0.25)

    def test_drains_to_the_all_fits_row(self):
        # More rows than needed: the last one takes "everything left",
        # in utility order, and later rows stay unused.
        rng = ensure_rng(5)
        waiting = _weighted(rng, 120, 12)
        df = _assert_same_decision(BatchConfig(num_rows=64, row_length=50), waiting)
        assert len(df.rows) < 64
        assert len(df.selected()) == 120


class TestTies:
    def test_equal_deadlines_break_by_id(self):
        # Three distinct deadlines over 600 requests, ids shuffled so the
        # tie-break is not the input order.
        rng = ensure_rng(1)
        waiting = _weighted(rng, 600, 30, deadlines=[5.0, 5.0, 9.0, 12.5])
        order = rng.permutation(len(waiting))
        _assert_same_decision(
            BatchConfig(num_rows=16, row_length=60), [waiting[i] for i in order]
        )

    def test_one_deadline_for_everyone(self):
        rng = ensure_rng(2)
        waiting = _weighted(rng, 300, 20, deadlines=[7.0])
        _assert_same_decision(BatchConfig(num_rows=8, row_length=40), waiting)

    def test_utilities_exactly_on_the_threshold(self):
        # N^U is the length-2 requests (u = 0.5); q = 0.5 puts the cut at
        # exactly 0.25, which 1/4, 2/8 and 4/16 all equal — they belong
        # to N^D (>=), the 1/5 ones do not.
        waiting = []
        for i in range(40):
            waiting.append(Request(request_id=i, length=2, deadline=50.0 - i))
        for i in range(40, 100):
            length, weight = [(4, 1.0), (8, 2.0), (16, 4.0), (5, 1.0)][i % 4]
            waiting.append(
                Request(request_id=i, length=length, deadline=100.0 - i, weight=weight)
            )
        for rows, L in [(4, 16), (8, 24), (12, 40)]:
            _assert_same_decision(BatchConfig(num_rows=rows, row_length=L), waiting)

    def test_all_utilities_equal(self):
        waiting = [
            Request(request_id=i, length=6, deadline=20.0 - (i % 7)) for i in range(90)
        ]
        _assert_same_decision(BatchConfig(num_rows=5, row_length=30), waiting)


class TestWaitingSetShapes:
    def test_requests_longer_than_a_row_are_passed_over(self):
        rng = ensure_rng(4)
        waiting = _weighted(rng, 900, 80)  # ~half exceed L = 40
        assert any(r.length > 40 for r in waiting)
        df = _assert_same_decision(BatchConfig(num_rows=20, row_length=40), waiting)
        assert all(r.length <= 40 for r in df.selected())

    def test_only_unservable_requests(self):
        waiting = [Request(request_id=i, length=50 + i) for i in range(10)]
        df = _assert_same_decision(BatchConfig(num_rows=4, row_length=40), waiting)
        assert df.rows == []

    def test_plain_sequences(self):
        # A list, a tuple, and a waiting list that outlived the queue
        # state it was taken from.
        rng = ensure_rng(6)
        waiting = _weighted(rng, 500, 30)
        batch = BatchConfig(num_rows=10, row_length=50)
        _assert_same_decision(batch, waiting)
        _assert_same_decision(batch, tuple(waiting))
        queue = RequestQueue()
        queue.extend(waiting)
        view = queue.waiting(0.0)
        queue.remove_served(view[:100])
        # The held view is a snapshot: it still holds, and sorts, all 500.
        assert len(view) == len(utility_columns(view).requests) == 500
        _assert_same_decision(batch, view)

    def test_row_zero_all_fits_keeps_arrival_order(self):
        waiting = [
            Request(request_id=i, length=n)
            for i, n in enumerate([9, 2, 7, 3])
        ]
        df = _assert_same_decision(BatchConfig(num_rows=3, row_length=30), waiting)
        assert [_ids(row) for row in df.rows] == [[0, 1, 2, 3]]


class TestBothWalks:
    """The list walk (pools up to ``SHALLOW_POOL``) and the masked walk
    (deeper pools) against the oracle, each forced on pools of every
    depth — including the sizes on either side of the constant."""

    @pytest.mark.parametrize("shallow_pool", [0, 10**9])
    @pytest.mark.parametrize("depth", [3, 20, 64, 127, 128, 129, 400])
    def test_either_walk_matches_the_oracle(self, monkeypatch, shallow_pool, depth):
        monkeypatch.setattr(das, "SHALLOW_POOL", shallow_pool)
        for seed in range(3):
            rng = ensure_rng(1000 * depth + seed)
            batch = BatchConfig(num_rows=int(rng.integers(1, 24)), row_length=100)
            waiting = _weighted(rng, depth, longest=int(rng.choice([40, 100, 130])))
            _assert_same_decision(batch, waiting)
            _assert_same_decision(batch, waiting, SchedulerConfig(eta=0.9, q=0.25))
