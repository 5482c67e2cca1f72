"""Stateful property test of :class:`repro.serving.lifecycle.Lifecycle`.

The serving loops call the lifecycle's transitions in a handful of fixed
orders.  This machine drives the same public transitions directly, all
planes attached, in orders no loop produces — shed right after a
requeue, expiry between a dispatch and its failure, serve of part of a
batch, iteration-level residents evicted while a batch is in flight —
and checks after every step that no request is lost or counted twice:

* ``arrived so far == queued + resident + terminals``,
* every request id sits in at most one of those places,
* the tenant ledgers sum to the global ledger,
* the tracer dropped no duplicate terminal,

and at the end (``finish``) the conservation assert, the tenant
finalize and ``Tracer.reconcile``.  The durability plane runs with
``verify_replay`` on, so at every snapshot the journal written by these
transition orders must replay to the live state.
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.config import BatchConfig
from repro.durability import DurabilityConfig, DurabilityPlane
from repro.engine.cost_model import GPUCostModel
from repro.faults.recovery import RetryPolicy
from repro.obs.recorder import Tracer
from repro.overload import (
    BreakerConfig,
    DegradationConfig,
    OverloadConfig,
    OverloadController,
    QueueLimits,
)
from repro.scheduling.das import DASScheduler
from repro.serving.admission import AdmissionController
from repro.serving.lifecycle import Lifecycle
from repro.tenancy import TenancyPlane, TenantClass, TenantRegistry
from repro.types import Request

BATCH = BatchConfig(num_rows=2, row_length=20)
MAX_LENGTH = 28  # 1.4·L: some requests can never fit a row
HORIZON = 6.0
COST = GPUCostModel.calibrated()
REGISTRY = TenantRegistry(
    {
        "premium": "premium",
        "standard": "standard",
        "batch": TenantClass(name="batch", weight=0.25, rate=30.0, burst=40.0),
    }
)


def _requests(n: int = 64) -> list[Request]:
    """A fixed trace: 12 req/s, lengths 3..28, slack 0.5..2.9 s.

    The cost model's quickest batch is ~0.53 s, so the tightest slacks
    are refused at arrival and a retried request is soon abandoned.
    """
    tenants = ("premium", "standard", "batch", None)
    out = []
    for i in range(n):
        arrival = i / 12.0
        out.append(
            Request(
                request_id=i,
                length=3 + (i * 7) % (MAX_LENGTH - 2),
                arrival=arrival,
                deadline=arrival + 0.5 + 0.3 * (i % 9),
                tenant=tenants[i % 4],
            )
        )
    return out


class LifecycleMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.tracer = Tracer()
        self.tenancy = TenancyPlane(REGISTRY, seed=0)
        # Sized to the longest request, so over-long ones are admitted
        # and have to leave through the unservable drop.
        self.admission = AdmissionController(
            BatchConfig(BATCH.num_rows, MAX_LENGTH), max_queued_tokens=300
        )
        self.life = Lifecycle(
            DASScheduler(BATCH),
            retry=RetryPolicy(max_retries=1),
            admission=self.admission,
            trace=self.tracer,
            overload=OverloadController(
                OverloadConfig(
                    limits=QueueLimits(max_tokens=100),
                    breaker=BreakerConfig(),
                    degradation=DegradationConfig(
                        shed_min_slack=0.2, brownout_min_slack=0.5
                    ),
                )
            ),
            durability=DurabilityPlane(
                DurabilityConfig(checkpoint_every=2, verify_replay=True)
            ),
            tenancy=self.tenancy,
        )
        self.life.begin(_requests(), HORIZON, lambda: {"now": self.now})
        # Batch-level dispatches in flight (their requests stay queued)
        # and iteration-level residents (dequeued at dispatch).
        self.batches: list[list[Request]] = []
        self.residents: list[Request] = []
        self.finished = False

    # -- transitions ---------------------------------------------------- #

    @rule(dt=st.sampled_from([0.0, 0.05, 0.25, 0.6, 1.2]))
    def step(self, dt):
        self.now += dt
        self.life.tick()
        self.life.admit_arrivals(self.now)

    @rule()
    def expire_and_shed(self):
        self.life.expire_and_shed(self.now)

    @rule()
    def dispatch_batch(self):
        life = self.life
        waiting = life.queue.waiting(self.now)
        if not waiting or life.breaker_blocks(0, self.now) is not None:
            return
        selected = life.select(waiting, self.now).selected()
        if not selected:
            life.drop_unservable(waiting, self.now)
            return
        self.batches.append(life.dispatch(selected, self.now))

    @rule(k=st.integers(1, 3))
    def dispatch_residents(self, k):
        in_flight = {r.request_id for b in self.batches for r in b}
        admitted = [
            r
            for r in self.life.queue.waiting(self.now)
            if r.length <= BATCH.row_length and r.request_id not in in_flight
        ][:k]
        if admitted:
            self.life.dispatch(admitted, self.now, resident=True)
            self.life.queue.remove_served(admitted)
            self.residents.extend(admitted)

    @precondition(lambda self: self.batches)
    @rule(crash=st.booleans())
    def fail_batch(self, crash):
        batch = self.batches.pop(0)
        retry_from = None
        if crash:
            self.life.crashed(0.3, self.now)
            retry_from = self.now + 0.3
        self.life.engine_result(0, self.now, ok=False)
        self.life.failed(batch, COST, self.now, retry_from=retry_from)

    @precondition(lambda self: self.batches)
    @rule(keep=st.integers(1, 8))
    def serve_batch(self, keep):
        # The serve contract: only requests still queued.  Part of the
        # batch (an OOM split), the rest stays queued for a later slot.
        batch = self.batches.pop(0)
        part = [r for r in batch if r.request_id in self.life.queue][:keep]
        self.life.engine_result(0, self.now, ok=True)
        self.life.serve(part, self.now + 0.02)
        self.life.batch_done(0.02, sum(r.length for r in part), 0)

    @precondition(lambda self: self.residents)
    @rule(k=st.integers(1, 3))
    def evict_residents(self, k):
        victims, self.residents = self.residents[-k:], self.residents[:-k]
        self.life.failed(victims, COST, self.now, readd=True)

    @precondition(lambda self: self.residents)
    @rule(k=st.integers(1, 3))
    def finish_residents(self, k):
        done, self.residents = self.residents[:k], self.residents[k:]
        self.life.serve(done, self.now, dequeue=False)

    # -- checks --------------------------------------------------------- #

    @invariant()
    def nothing_lost_or_doubled(self):
        if not self.finished:
            check_books(self)

    def teardown(self):
        self.finished = True
        m = self.life.finish(self.residents)
        assert m.conservation_ok
        assert self.tracer.duplicate_terminals == 0
        self.tenancy.book.assert_matches(m)


def check_books(machine: LifecycleMachine) -> None:
    """Every arrived request is in exactly one place, on every book."""
    life, tracer = machine.life, machine.tracer
    m, q = life.metrics, life.queue
    # Until finish() folds them, expiries and abandons sit on the queue's
    # ledger and admission refusals on the controller's.
    refused = machine.admission.rejected[life.rejected_before:]
    places = {
        "queued": q.waiting_ids(),
        "resident": [r.request_id for r in machine.residents],
        "served": [r.request_id for r in m.served],
        "rejected": [r.request_id for r in m.rejected + refused],
        "expired": [r.request_id for r in q.expired],
        "abandoned": [r.request_id for r in q.abandoned],
    }
    ids = [rid for where in places.values() for rid in where]
    assert len(ids) == len(set(ids)), f"a request is in two places: {places}"
    assert len(ids) == life.next_arrival, (life.next_arrival, places)
    tot = machine.tenancy.book.totals()
    assert (tot.arrived, tot.served, tot.rejected, tot.expired, tot.abandoned) == (
        life.next_arrival,
        len(places["served"]),
        len(places["rejected"]),
        len(places["expired"]),
        len(places["abandoned"]),
    )
    assert tot.shed == m.shed
    assert tracer.duplicate_terminals == 0
    terminals = len(ids) - len(places["queued"]) - len(places["resident"])
    assert len(tracer.outcomes()) == terminals


def test_lifecycle_state_machine():
    run_state_machine_as_test(
        LifecycleMachine,
        settings=settings(
            max_examples=60, stateful_step_count=50, deadline=None
        ),
    )


def test_second_terminal_is_caught():
    """The books above must notice a request given two terminals."""
    machine = LifecycleMachine()
    machine.step(1.1)
    machine.dispatch_batch()
    batch = machine.batches.pop()
    machine.life.serve(batch, machine.now + 0.02)
    check_books(machine)
    # Served, then triaged as a failed resident: a second terminal (or a
    # second life in the queue) for the same request.
    machine.life.failed(batch, COST, machine.now, readd=True)
    with pytest.raises(AssertionError):
        check_books(machine)
