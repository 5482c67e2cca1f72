"""``fair_select`` on resumable fills ≡ the per-row re-select oracle.

``tests/oracles/fairshare.py`` is the original implementation: a fresh
one-row ``select`` per row over a list rebuilt after every row.  Rows
(order included), ``deficits``, ``slot_size``, ``info`` and the number
of tie-break draws must match it for every scheduler, on the shapes
where serving a tenant's rows from one lowering is most likely to
diverge: entitlement ties, carried deficits, a tenant nothing of which
fits a row, a remainder that fits one row (which a fresh select takes in
*waiting* order, not utility order), weighted utilities and plain-list
input.  ``discarded`` is checked against its own contract — the oracle's
list is the defect this PR fixed.
"""

import pytest

from repro.config import BatchConfig
from repro.rng import ensure_rng
from repro.scheduling.baselines import DEFScheduler, FCFSScheduler, SJFScheduler
from repro.scheduling.das import DASScheduler
from repro.scheduling.queue import RequestQueue
from repro.scheduling.slotted_das import SlottedDASScheduler
from repro.tenancy.fairshare import fair_select
from repro.types import Request
from tests.oracles.das import das_scheduler
from tests.oracles.fairshare import reference_fair_select

SCHEDULERS = {
    "das": DASScheduler,
    "slotted_das": SlottedDASScheduler,
    "fcfs": FCFSScheduler,
    "sjf": SJFScheduler,
    "def": DEFScheduler,
}
BATCH = BatchConfig(num_rows=8, row_length=100)


def _ids(rows):
    return [[r.request_id for r in row] for row in rows]


def _pool(rng, tenants, n, longest=60, weights=(1.0,)):
    """``n`` requests over ``tenants``, ids shuffled against utility."""
    ids = rng.permutation(n).tolist()
    return [
        Request(
            request_id=ids[i],
            length=int(rng.integers(1, longest + 1)),
            arrival=float(i) * 1e-3,
            deadline=float(rng.uniform(0.5, 30.0)),
            weight=float(rng.choice(weights)),
            tenant=tenants[int(rng.integers(len(tenants)))],
        )
        for i in range(n)
    ]


def _groups(waiting):
    groups = {}
    for r in waiting:
        groups.setdefault(r.tenant, []).append(r)
    return groups


def _assert_same(name, waiting, weights, *, deficits=None, batch=BATCH, seed=0):
    """One decision both ways; returns (new, oracle's, new deficits)."""
    groups = _groups(waiting)
    weights = {t: weights.get(t, 1.0) for t in groups}
    d_new, d_ref = dict(deficits or {}), dict(deficits or {})
    rng_new, rng_ref = ensure_rng(seed), ensure_rng(seed)
    scheduler = SCHEDULERS[name](batch)
    got = fair_select(
        scheduler, groups, 0.0, weights=weights, deficits=d_new, rng=rng_new
    )
    want = reference_fair_select(
        SCHEDULERS[name](batch), groups, 0.0, weights=weights, deficits=d_ref,
        rng=rng_ref,
    )
    assert _ids(got.rows) == _ids(want.rows)
    assert d_new == d_ref
    assert got.slot_size == want.slot_size
    assert got.info == want.info
    # Same number of draws, or every later decision's replay diverges.
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    assert scheduler.batch == batch
    got.validate(batch)
    # The discarded contract: once each, first-discard order, never a
    # selected request, and nothing the oracle did not also discard.
    ids = [r.request_id for r in got.discarded]
    assert len(ids) == len(set(ids))
    assert not set(ids) & {r.request_id for r in got.selected()}
    first_seen = list(dict.fromkeys(r.request_id for r in want.discarded))
    assert ids == [i for i in first_seen if i in set(ids)]
    assert set(first_seen) - set(ids) <= {r.request_id for r in got.selected()}
    return got, want, d_new


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
@pytest.mark.parametrize("num_tenants", [2, 3, 5])
class TestRandomPools:
    def test_equal_entitlements_draw_ties(self, name, num_tenants):
        tenants = [f"t{i}" for i in range(num_tenants)]
        for seed in range(4):
            rng = ensure_rng(100 + seed)
            waiting = _pool(rng, tenants, 120)
            got, _, _ = _assert_same(name, waiting, {}, seed=seed)
            assert len(got.rows) == BATCH.num_rows

    def test_skewed_weights_carry_deficits(self, name, num_tenants):
        tenants = [f"t{i}" for i in range(num_tenants)]
        weights = {t: 4.0 / (i + 1) ** 2 for i, t in enumerate(tenants)}
        rng = ensure_rng(7 + num_tenants)
        deficits = {}
        for step in range(4):
            # A new pool per decision, the deficits carried across them.
            waiting = _pool(rng, tenants, 90)
            _, _, deficits = _assert_same(
                name, waiting, weights, deficits=deficits, seed=step
            )
        assert any(d > 0 for d in deficits.values())

    def test_weighted_utilities(self, name, num_tenants):
        tenants = [f"t{i}" for i in range(num_tenants)]
        rng = ensure_rng(31 + num_tenants)
        waiting = _pool(rng, tenants, 150, weights=(0.25, 0.5, 1.0, 2.0, 4.0))
        _assert_same(name, waiting, {"t0": 2.0})

    def test_a_tenant_nothing_of_which_fits_is_parked(self, name, num_tenants):
        tenants = [f"t{i}" for i in range(num_tenants)]
        rng = ensure_rng(5)
        waiting = _pool(rng, tenants[1:], 60)
        giants = [
            Request(
                request_id=1000 + i, length=BATCH.row_length + 1 + i,
                arrival=0.0, deadline=9.0, tenant="t0",
            )
            for i in range(3)
        ]
        got, _, _ = _assert_same(name, giants + waiting, {"t0": 8.0})
        assert got.rows and got.info["rows_by_tenant"]["t0"] == 0

    def test_remainder_that_fits_one_row(self, name, num_tenants):
        """Each tenant holds 1.6 rows: its second row is everything it
        has left (the longest few), which a fresh select takes whole in
        waiting order — here longest first, the reverse of utility order."""
        tenants = [f"t{i}" for i in range(num_tenants)]
        waiting = []
        for k, t in enumerate(tenants):
            lengths = [9, 31, 17, 26, 5, 22, 13, 8, 14, 15]  # 160 tokens
            waiting += [
                Request(
                    request_id=100 * k + (len(lengths) - i), length=length,
                    arrival=float(i) * 1e-3, deadline=5.0 + (i % 3), tenant=t,
                )
                for i, length in enumerate(lengths)
            ]
        batch = BatchConfig(num_rows=2 * num_tenants, row_length=100)
        got, _, _ = _assert_same(name, waiting, {}, batch=batch)
        assert len(got.selected()) == len(waiting)


class TestInputsAndParts:
    def test_plain_list_and_waiting_view_agree(self):
        rng = ensure_rng(11)
        requests = _pool(rng, ["a", "b", "c"], 140)
        queue = RequestQueue()
        queue.extend(requests)
        view = queue.waiting(0.5)
        for name in sorted(SCHEDULERS):
            from_view, _, _ = _assert_same(name, view, {"a": 2.0})
            from_list, _, _ = _assert_same(name, list(view), {"a": 2.0})
            assert _ids(from_view.rows) == _ids(from_list.rows)

    @pytest.mark.parametrize("seed", range(3))
    def test_recorded_parts_of_plain_select_unchanged(self, seed):
        rng = ensure_rng(seed)
        waiting = _pool(rng, ["a"], 400, weights=(0.5, 1.0, 2.0))
        batch = BatchConfig(num_rows=12, row_length=100)
        fast = DASScheduler(batch, record_parts=True)
        ref = das_scheduler(batch, record_parts=True, reference=True)
        assert _ids(fast.select(waiting).rows) == _ids(ref.select(waiting).rows)
        assert [(_ids([u]), _ids([d])) for u, d in fast.last_parts] == [
            (_ids([u]), _ids([d])) for u, d in ref.last_parts
        ]

    def test_slotted_discards_reported_once_and_never_selected(self):
        """Under Slotted DAS a discarded request stays in its tenant's
        pool, so later rows discard it again or select it: the oracle's
        list repeats entries and names selected requests in nearly every
        decision; ``_assert_same`` holds the new list to its contract."""
        repeats = overlaps = 0
        for seed in range(50):
            rng = ensure_rng(seed)
            waiting = _pool(rng, ["a", "b", "c"], 120, longest=100)
            got, want, _ = _assert_same("slotted_das", waiting, {}, seed=seed)
            old = [r.request_id for r in want.discarded]
            repeats += len(old) - len(set(old))
            overlaps += bool(set(old) & {r.request_id for r in want.selected()})
            assert len(got.discarded) <= len(set(old))
        assert repeats > 100 and overlaps > 25
