"""Column admission of the iteration-level loop ≡ the per-request walk.

``repro.serving.continuous.admit`` lowers the waiting set to columns
once, takes the head-of-line prefix by ``cumsum`` + ``searchsorted`` and
skip-fits the rest only while something can still fit.
``tests/oracles/continuous_admission.py`` is the walk it replaced, which
sorts the requests and visits every one.  Both must admit the same
requests in the same order and, with tenant fair share, carry the same
deficits forward — across FCFS and utility admission,
requests longer than a row, a free budget at or below zero (brownout
below the residents), ties in utility and in arrival, and non-unit
weights, which make the utility order differ from shortest-first so
the walk after the prefix has something to find.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rng import ensure_rng
from repro.serving.continuous import admit
from repro.tenancy import TenancyPlane, TenantClass, TenantRegistry
from repro.types import Request
from tests.oracles.continuous_admission import reference_admission

REGISTRY = TenantRegistry(
    {
        "a": "premium",
        "b": "standard",
        "c": TenantClass(name="c", weight=0.25),
    }
)


def _ids(requests):
    return [r.request_id for r in requests]


@st.composite
def _cases(draw):
    row_length = draw(st.sampled_from([4, 8, 16, 30]))
    n = draw(st.integers(0, 40))
    ids = draw(st.permutations(range(n)))
    waiting = [
        Request(
            request_id=ids[i],
            # Up to 1.5·L: some requests can never be admitted.
            length=draw(st.integers(1, row_length + row_length // 2)),
            # Few distinct arrivals and weights: ties in both orders.
            arrival=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
            deadline=10.0,
            weight=draw(st.sampled_from([1.0, 1.0, 0.25, 0.5, 2.0, 4.0, 1 / 3])),
            tenant=draw(st.sampled_from([None, "a", "b", "c"])),
        )
        for i in range(n)
    ]
    iter_budget = draw(st.integers(1, 6 * row_length))
    # Residents may hold more than a (browned-out) budget: free ≤ 0.
    used = draw(st.integers(0, 7 * row_length))
    return waiting, used, iter_budget, row_length


def _plane(waiting, warm_charges=None):
    """A fair-share plane with every tenant arrived; with *warm_charges*,
    deficits carried from one earlier pass that charged that many."""
    plane = TenancyPlane(REGISTRY)
    plane.begin_run()
    plane.arrive(waiting)
    warm = None if warm_charges is None else plane.iteration_share(waiting, 50)
    if warm is not None:
        for r in waiting[:warm_charges]:
            warm.charge(r)
        warm.settle()
    return plane


def _assert_same(waiting, used, iter_budget, row_length, admission, planes=None):
    """*planes*: two fair-share planes in the same state, one per side."""
    free = iter_budget - used
    share = None
    if planes is not None:
        share = planes[0].iteration_share(waiting, max(0, free))
    ref = reference_admission(
        waiting, used, iter_budget,
        row_length=row_length, admission=admission,
        share=share, tenant_of=None if planes is None else planes[0].key,
    )
    if share is not None:
        share.settle()
    got = admit(
        waiting, free, row_length,
        fcfs=admission == "fcfs", tenancy=None if planes is None else planes[1],
    )
    assert _ids(got) == _ids(ref)
    if planes is not None:
        # Same allowances charged, so the same deficits carried forward.
        assert planes[1]._deficits == planes[0]._deficits
    return got


@settings(max_examples=300, deadline=None)
@given(
    case=_cases(),
    admission=st.sampled_from(["fcfs", "utility"]),
    fair=st.booleans(),
    warm_charges=st.integers(0, 10),
)
def test_admit_matches_the_walk(case, admission, fair, warm_charges):
    waiting, used, iter_budget, row_length = case
    planes = [_plane(waiting, warm_charges) for _ in range(2)] if fair else None
    _assert_same(waiting, used, iter_budget, row_length, admission, planes)


@pytest.mark.parametrize("admission", ["fcfs", "utility"])
@pytest.mark.parametrize("fair", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_deep_queue(admission, fair, seed):
    """The saturated shape: ~1,000 waiting, a 64 × 100 budget mostly held."""
    rng = ensure_rng(seed)
    waiting = [
        Request(
            request_id=i,
            length=int(min(140, max(3, round(rng.normal(20.0, 20.0))))),
            arrival=float(rng.integers(0, 50)) / 10,
            deadline=10.0,
            weight=float(rng.choice([1.0, 1.0, 0.25, 4.0])),
            tenant=str(rng.choice(["a", "b", "c"])),
        )
        for i in rng.permutation(1000).tolist()
    ]
    planes = [_plane(waiting, 20) for _ in range(2)] if fair else None
    # Consecutive passes: each carries its deficits into the next.
    for used in (0, 5000, 6300, 6400, 7000):
        _assert_same(waiting, used, 6400, 100, admission, planes)


def test_fcfs_blocks_per_tenant_not_globally():
    # Allowances of a 40-token pass: premium "a" 32, standard "b" 8.
    # Under FCFS "a"'s head request overruns its allowance, so "a" is
    # blocked for the rest of the pass while "b" keeps admitting behind
    # it; under utility admission "a" only skips that one request.
    waiting = [
        Request(request_id=0, length=36, arrival=0.0, tenant="a"),
        Request(request_id=1, length=4, arrival=0.1, tenant="b"),
        Request(request_id=2, length=2, arrival=0.2, tenant="a"),
        Request(request_id=3, length=4, arrival=0.3, tenant="b"),
    ]
    planes = [_plane(waiting) for _ in range(2)]
    assert _ids(_assert_same(waiting, 0, 40, 40, "fcfs", planes)) == [1, 3]
    planes = [_plane(waiting) for _ in range(2)]
    assert _ids(_assert_same(waiting, 0, 40, 40, "utility", planes)) == [2, 1, 3]


def test_no_budget_admits_nothing():
    waiting = [Request(request_id=i, length=1 + i, arrival=0.0) for i in range(5)]
    for admission in ("fcfs", "utility"):
        assert _assert_same(waiting, 120, 100, 10, admission) == []
        assert _assert_same(waiting, 100, 100, 10, admission) == []
