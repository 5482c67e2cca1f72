"""Differential tests for the incremental DAS fast path.

Three layers (ISSUE 8 satellites):

1. ``das_row_parts`` (prefix-sum + binary-search) must equal
   ``_reference_das_row_parts`` (the original loop) on adversarial
   inputs — all-too-long, exact fit, single request, and the η/q
   boundary values 0 and 1, which ``SchedulerConfig`` rejects but the
   raw function must still handle.
2. ``DASScheduler.select`` with the incremental sort must equal a
   from-scratch re-sort select (``reference=True``) across 200 seeded
   queue states, both on plain lists and through
   ``RequestQueue.waiting``.
3. A pinned multi-row regression: removing the redundant per-row sort
   must not shift a single request between rows.
"""

import pytest

from repro.config import BatchConfig, SchedulerConfig
from repro.rng import ensure_rng
from repro.scheduling.das import DASScheduler, das_row_parts
from repro.scheduling.queue import RequestQueue
from repro.types import Request
from tests.oracles.das import _reference_das_row_parts, das_scheduler


def _ids(requests):
    return [r.request_id for r in requests]


def _by_utility(requests):
    return sorted(requests, key=lambda r: (-r.utility, r.request_id))


def _mk(i, length, *, deadline=100.0, arrival=0.0, weight=1.0):
    return Request(
        request_id=i,
        length=length,
        arrival=arrival,
        deadline=deadline,
        weight=weight,
    )


def _assert_parts_equal(candidates, row_length, eta, q):
    fast = das_row_parts(candidates, row_length, eta, q)
    ref = _reference_das_row_parts(candidates, row_length, eta, q)
    assert [_ids(part) for part in fast] == [_ids(part) for part in ref], (
        f"row_parts diverged at L={row_length} eta={eta} q={q}"
    )


ETA_Q_GRID = [0.0, 0.25, 0.5, 1.0]


class TestRowPartsAdversarial:
    @pytest.mark.parametrize("eta", ETA_Q_GRID)
    @pytest.mark.parametrize("q", ETA_Q_GRID)
    def test_all_too_long(self, eta, q):
        # Even the shortest candidate exceeds the row: s == 0 path.
        cand = _by_utility([_mk(i, 20 + i) for i in range(5)])
        _assert_parts_equal(cand, 10, eta, q)
        n_u, n_d, rest = das_row_parts(cand, 10, eta, q)
        assert n_u == [] and n_d == [] and _ids(rest) == _ids(cand)

    @pytest.mark.parametrize("eta", ETA_Q_GRID)
    @pytest.mark.parametrize("q", ETA_Q_GRID)
    def test_exact_fit(self, eta, q):
        # Prefix sums hit the row length exactly (bisect boundary).
        cand = _by_utility([_mk(0, 2), _mk(1, 3), _mk(2, 5), _mk(3, 6)])
        _assert_parts_equal(cand, 10, eta, q)
        _assert_parts_equal(cand, 5, eta, q)
        _assert_parts_equal(cand, 16, eta, q)

    @pytest.mark.parametrize("eta", ETA_Q_GRID)
    @pytest.mark.parametrize("q", ETA_Q_GRID)
    def test_single_request(self, eta, q):
        _assert_parts_equal([_mk(0, 4)], 10, eta, q)
        _assert_parts_equal([_mk(0, 10)], 10, eta, q)
        _assert_parts_equal([_mk(0, 11)], 10, eta, q)

    def test_empty(self):
        assert das_row_parts([], 10, 0.5, 0.5) == ([], [], [])
        assert _reference_das_row_parts([], 10, 0.5, 0.5) == ([], [], [])

    def test_eta_zero_keeps_one_dominant(self):
        # η=0 → p = max(1, 0): the dominant set is exactly one request.
        cand = _by_utility([_mk(i, 2 + i) for i in range(6)])
        n_u, _, _ = das_row_parts(cand, 12, 0.0, 0.5)
        assert _ids(n_u) == [_ids(cand)[0]]
        _assert_parts_equal(cand, 12, 0.0, 0.5)

    def test_q_zero_admits_all_to_deadline_set(self):
        # q=0 → threshold 0: every leftover utility qualifies for N^D.
        cand = _by_utility([_mk(i, 2 + i, deadline=10.0 - i) for i in range(6)])
        _, n_d, rest = das_row_parts(cand, 12, 0.5, 0.0)
        assert rest == []
        # And N^D comes back earliest-deadline-first.
        deadlines = [r.deadline for r in n_d]
        assert deadlines == sorted(deadlines)
        _assert_parts_equal(cand, 12, 0.5, 0.0)

    def test_q_one_threshold_ties(self):
        # q=1 → threshold = v̄ exactly; equal-utility candidates sit on
        # the boundary and must fall on the same side in both paths.
        cand = _by_utility([_mk(i, 4, deadline=5.0 + i) for i in range(8)])
        _assert_parts_equal(cand, 8, 1.0, 1.0)
        n_u, n_d, rest = das_row_parts(cand, 8, 1.0, 1.0)
        # All utilities equal v̄, so ≥ threshold admits everyone left.
        assert rest == []
        assert len(n_u) + len(n_d) == 8

    @pytest.mark.parametrize("seed", range(10))
    def test_randomized(self, seed):
        rng = ensure_rng(seed)
        for _ in range(20):
            n = int(rng.integers(0, 40))
            cand = _by_utility(
                [
                    _mk(
                        i,
                        int(rng.integers(1, 30)),
                        deadline=float(rng.uniform(0.1, 20.0)),
                        weight=float(rng.choice([0.5, 1.0, 1.0, 2.0])),
                    )
                    for i in range(n)
                ]
            )
            L = int(rng.choice([4, 8, 16, 32]))
            eta = float(rng.choice([0.0, 0.1, 0.5, 0.9, 1.0]))
            q = float(rng.choice([0.0, 0.1, 0.5, 0.9, 1.0]))
            _assert_parts_equal(cand, L, eta, q)


def _random_state(rng, n):
    reqs = []
    for i in range(n):
        arrival = float(rng.uniform(0.0, 5.0))
        reqs.append(
            Request(
                request_id=i,
                length=int(rng.integers(1, 30)),
                arrival=arrival,
                deadline=arrival + float(rng.uniform(0.1, 20.0)),
                weight=float(rng.choice([0.5, 1.0, 1.0, 2.0])),
            )
        )
    return reqs


def _assert_select_equal(fast_sched, ref_sched, waiting, now=10.0):
    df = fast_sched.select(waiting, now)
    dr = ref_sched.select(waiting, now)
    assert [_ids(row) for row in df.rows] == [_ids(row) for row in dr.rows]
    assert df.info == dr.info
    fp = [(_ids(u), _ids(d)) for u, d in fast_sched.last_parts]
    rp = [(_ids(u), _ids(d)) for u, d in ref_sched.last_parts]
    assert fp == rp


class TestIncrementalSelect:
    """Fast select ≡ from-scratch re-sort select, 200 seeded states."""

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_states_plain_list(self, seed):
        rng = ensure_rng(seed)
        for _ in range(50):
            n = int(rng.integers(0, 80))
            batch = BatchConfig(
                num_rows=int(rng.integers(1, 8)),
                row_length=int(rng.choice([8, 16, 20, 32])),
            )
            cfg = SchedulerConfig(
                eta=float(rng.choice([0.1, 0.5, 0.9])),
                q=float(rng.choice([0.1, 0.5, 0.9])),
            )
            fast = DASScheduler(batch, cfg, record_parts=True)
            ref = das_scheduler(batch, cfg, record_parts=True, reference=True)
            _assert_select_equal(fast, ref, _random_state(rng, n))

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_states_waiting_view(self, seed):
        """Same differential through ``RequestQueue.waiting``, the list
        every serving loop hands the scheduler."""
        rng = ensure_rng(100 + seed)
        for _ in range(15):
            n = int(rng.integers(1, 60))
            queue = RequestQueue()
            for r in _random_state(rng, n):
                queue.add(r)
            now = float(rng.uniform(2.0, 8.0))
            batch = BatchConfig(num_rows=4, row_length=20)
            fast = DASScheduler(batch, record_parts=True)
            ref = das_scheduler(batch, record_parts=True, reference=True)
            _assert_select_equal(fast, ref, queue.waiting(now), now)


class TestMultiRowRegressionPin:
    """Satellite fix: the per-row re-sort was removed; pin the output.

    The values were produced by the pre-removal implementation (and are
    re-checked against ``reference=True`` here), so any future drift in
    either path fails loudly.
    """

    LENGTHS = [3, 7, 2, 9, 4, 6, 2, 8, 5, 3, 10, 4]
    EXPECTED_ROWS = [[2, 6, 0, 11, 4], [9, 5, 8], [1, 7]]
    EXPECTED_PARTS = [([2, 6], [0, 11, 4]), ([9], [5, 8]), ([1], [7])]

    def _requests(self):
        return [
            Request(
                request_id=i,
                length=length,
                arrival=0.0,
                deadline=2.0 + (i % 5),
            )
            for i, length in enumerate(self.LENGTHS)
        ]

    @pytest.mark.parametrize("reference", [False, True])
    def test_pinned_selection(self, reference):
        sched = das_scheduler(
            BatchConfig(num_rows=3, row_length=16),
            SchedulerConfig(),
            record_parts=True,
            reference=reference,
        )
        decision = sched.select(self._requests())
        assert [_ids(row) for row in decision.rows] == self.EXPECTED_ROWS
        assert [
            (_ids(u), _ids(d)) for u, d in sched.last_parts
        ] == self.EXPECTED_PARTS
        assert decision.info["num_utility_dominant"] == 4
        assert decision.info["num_deadline_aware"] == 6
