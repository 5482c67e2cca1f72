"""Property-based fuzz suite for the indexed ``RequestQueue``.

Random interleavings of every queue operation are applied in lock-step
to the fast queue and to ``_ReferenceRequestQueue`` (the pre-ISSUE-8
dict+scan implementation, kept verbatim as the oracle).  After *every*
op the two must agree on all observable state — waiting set and its
sorted orders, ledgers, ``queued_tokens``, ``queue_delay`` — and the
conservation invariant must hold: every request ever added is in
exactly one of {waiting, expired, abandoned, served, taken-by-caller}.

Seeded through :mod:`repro.rng` (TCB002 — replayable from the seed
alone, no global RNG).
"""

import pytest

from repro.rng import ensure_rng
from repro.scheduling.queue import RequestQueue, utility_columns
from repro.serving.continuous import admit
from repro.types import Request
from tests.oracles.queue import _ReferenceRequestQueue


def _ids(requests):
    return [r.request_id for r in requests]


def _assert_same_state(fast: RequestQueue, ref: _ReferenceRequestQueue, now):
    assert fast.waiting_ids() == ref.waiting_ids()
    assert fast.queued_tokens == ref.queued_tokens
    assert len(fast) == len(ref)
    assert _ids(fast.expired) == _ids(ref.expired)
    assert _ids(fast.abandoned) == _ids(ref.abandoned)
    assert fast.served_ids == ref.served_ids
    assert fast.queue_delay(now) == ref.queue_delay(now)

    fast_view = fast.waiting(now)
    ref_view = ref.waiting(now)
    assert _ids(fast_view) == _ids(ref_view)
    # The sorted orders readers lower the list to (DAS's columns, the
    # iteration-level loop's FCFS admission given room for everything)
    # must equal explicit total-order sorts of the reference's list.
    assert _ids(utility_columns(fast_view).requests) == _ids(
        sorted(ref_view, key=lambda r: (-r.utility, r.request_id))
    )
    room = sum(r.length for r in fast_view)
    longest = max((r.length for r in fast_view), default=0)
    assert _ids(admit(fast_view, room, longest, fcfs=True)) == _ids(
        sorted(ref_view, key=lambda r: (r.arrival, r.request_id))
    )


def _assert_conservation(queue: RequestQueue, added, taken_out):
    """Every added id is in exactly one terminal/waiting bucket."""
    buckets = [
        set(queue.waiting_ids()),
        {r.request_id for r in queue.expired},
        {r.request_id for r in queue.abandoned},
        set(queue.served_ids),
        taken_out,
    ]
    union = set()
    total = 0
    for b in buckets:
        union |= b
        total += len(b)
    assert union == added
    assert total == len(added), "a request is in two buckets at once"


def _fuzz_once(seed: int, steps: int = 400) -> None:
    rng = ensure_rng(seed)
    fast = RequestQueue()
    ref = _ReferenceRequestQueue()
    now = 0.0
    next_id = 0
    added: set[int] = set()
    # Requests removed via take() whose ownership is with the caller.
    in_flight: dict[int, Request] = {}
    taken_out: set[int] = set()

    for _step in range(steps):
        op = rng.choice(
            ["add", "add", "add", "expire", "take", "drop", "requeue",
             "abandon", "serve", "tick"]
        )
        if op == "add":
            length = int(rng.integers(1, 20))
            arrival = now + float(rng.uniform(0.0, 0.5))
            r = Request(
                request_id=next_id,
                length=length,
                arrival=arrival,
                deadline=arrival + float(rng.uniform(0.1, 4.0)),
                weight=float(rng.choice([0.5, 1.0, 1.0, 2.0])),
            )
            next_id += 1
            added.add(r.request_id)
            fast.add(r)
            ref.add(r)
        elif op == "expire":
            now += float(rng.uniform(0.0, 1.0))
            assert _ids(fast.expire(now)) == _ids(ref.expire(now))
        elif op == "tick":
            now += float(rng.uniform(0.0, 0.3))
        else:
            waiting = list(fast.waiting(now))
            if op == "requeue":
                pool = list(in_flight.values())
                if not pool:
                    continue
                k = int(rng.integers(1, len(pool) + 1))
                picks = [pool[i] for i in rng.choice(len(pool), size=k, replace=False)]
                fast.requeue(picks)
                ref.requeue(picks)
                for r in picks:
                    del in_flight[r.request_id]
                    taken_out.discard(r.request_id)
            else:
                if not waiting:
                    continue
                k = int(rng.integers(1, min(6, len(waiting)) + 1))
                picks = [
                    waiting[i]
                    for i in rng.choice(len(waiting), size=k, replace=False)
                ]
                if op == "take":
                    ft = fast.take(picks)
                    rt = ref.take(picks)
                    assert _ids(ft) == _ids(rt)
                    for r in ft:
                        in_flight[r.request_id] = r
                        taken_out.add(r.request_id)
                elif op == "drop":
                    fast.drop(picks)
                    ref.drop(picks)
                elif op == "abandon":
                    fast.abandon(picks)
                    ref.abandon(picks)
                elif op == "serve":
                    fast.remove_served(picks)
                    ref.remove_served(picks)
        _assert_same_state(fast, ref, now)
        _assert_conservation(fast, added, taken_out)

    # Drain: everything left expires eventually.
    assert _ids(fast.expire(now + 100.0)) == _ids(ref.expire(now + 100.0))
    _assert_same_state(fast, ref, now + 100.0)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_interleavings(seed):
    _fuzz_once(seed)


def test_fuzz_heavy_churn():
    """A longer run to push the heaps through several compactions."""
    _fuzz_once(99, steps=1500)


class TestQueueDelayStaleness:
    """Lazy-deleted heap entries must never resurrect head-of-line age
    (satellite task: the arrival-heap rewrite's sharp edge)."""

    def test_removed_head_does_not_linger(self):
        q = RequestQueue()
        old = Request(request_id=0, length=4, arrival=0.0, deadline=50.0)
        young = Request(request_id=1, length=4, arrival=5.0, deadline=50.0)
        q.add(old)
        q.add(young)
        assert q.queue_delay(10.0) == 10.0
        q.remove_served([old])
        # The heap still holds the lazily-deleted entry for ``old``;
        # the delay must come from the *live* head.
        assert q.queue_delay(10.0) == 5.0
        q.remove_served([young])
        assert q.queue_delay(10.0) == 0.0

    def test_requeue_revives_true_age(self):
        q = RequestQueue()
        r = Request(request_id=0, length=4, arrival=1.0, deadline=50.0)
        q.add(r)
        q.take([r])
        assert q.queue_delay(10.0) == 0.0
        q.requeue([r])
        # Back in the queue with its original arrival: age resumes.
        assert q.queue_delay(10.0) == 9.0

    def test_interleaved_take_requeue_matches_reference(self):
        """The incarnation map under rapid take/requeue cycles."""
        fast, ref = RequestQueue(), _ReferenceRequestQueue()
        rng = ensure_rng(7)
        reqs = [
            Request(
                request_id=i,
                length=2,
                arrival=float(i) * 0.25,
                deadline=100.0,
            )
            for i in range(20)
        ]
        for r in reqs:
            fast.add(r)
            ref.add(r)
        for _ in range(200):
            i = int(rng.integers(0, 20))
            r = reqs[i]
            if r.request_id in fast:
                fast.take([r])
                ref.take([r])
            else:
                fast.requeue([r])
                ref.requeue([r])
            now = float(rng.uniform(5.0, 20.0))
            assert fast.queue_delay(now) == ref.queue_delay(now)
            assert fast.waiting_ids() == ref.waiting_ids()

    def test_expired_head_does_not_linger(self):
        q = RequestQueue()
        old = Request(request_id=0, length=4, arrival=0.0, deadline=1.0)
        young = Request(request_id=1, length=4, arrival=2.0, deadline=50.0)
        q.add(old)
        q.add(young)
        assert _ids(q.expire(3.0)) == [0]
        assert q.queue_delay(3.0) == 1.0
