"""Property tests of :class:`repro.serving.lifecycle.Lifecycle`.

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
``verify_replay`` on, so every snapshot taken between these transition
orders must restore to the live state.

Below the machine, the one-door tests: an AST walk checking that
``Lifecycle`` really is the only caller of the queue's mutators, that
``serve_slot`` is the only way ``serving/`` runs an engine and that
``Lifecycle.run_slot`` alone steps an engine slot; then the runtime
checks of what the retired lint rules TCB008/009/012 used to
prove about the shed and resident-dequeue paths.
"""

from __future__ import annotations

import ast
import itertools
from collections import Counter
from pathlib import Path

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
from repro.durability.digest import state_digest
from repro.engine.cost_model import GPUCostModel
from repro.faults.plan import SchedulerCrash, SchedulerCrashed
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
        # Batch-level dispatches in flight (their requests stay queued)
        # and iteration-level residents (dequeued at dispatch).
        self.batches: list[list[Request]] = []
        self.residents: list[Request] = []
        # Residents ride in the snapshot as a loop's `running` pairs.
        self.life.begin(
            _requests(),
            HORIZON,
            lambda: {"now": self.now, "running": [(r, 1) for r in self.residents]},
        )
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
        waiting = life.waiting(self.now)
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
            for r in self.life.waiting(self.now)
            if r.length <= BATCH.row_length and r.request_id not in in_flight
        ][:k]
        if admitted:
            self.life.dispatch(admitted, self.now, resident=True)
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


# ---------------------------------------------------------------------- #
# One door: the structure that replaced TCB008 / TCB009 / TCB012
# ---------------------------------------------------------------------- #

PACKAGE = Path(__file__).parent.parent / "src" / "repro"
# `add` is left out: sets and tenancy buckets have one too, and an
# enqueue without its ledger entry shows up as arrived != accounted.
QUEUE_MUTATORS = frozenset(
    {"take", "drop", "remove_served", "abandon", "requeue", "note_attempt", "expire"}
)
# The queue itself, the lifecycle, and the restore that folds an online
# server's journaled submits and responses into a restored queue.
QUEUE_CALLERS = frozenset(
    {"scheduling/queue.py", "serving/lifecycle.py", "durability/restore.py"}
)
# Running the model, or packing the batch it runs on, is an engine's
# work: under serving/ it reaches the model only through serve_slot.
MODEL_CALLS = frozenset(
    {
        "greedy_decode",
        "encode_layout",
        "encode_requests",
        "pack_in_order",
        "pack_first_fit",
        "pack_into_slots",
    }
)


# The steps of one engine slot belong to Lifecycle.run_slot: nothing else
# under serving/ calls them, and serve_slot has one call in src/repro,
# the one in Lifecycle.attempt.
SLOT_CALLS = frozenset(
    {"serve_slot", "apply_slot_size", "drop_unservable", "serve_batch"}
)
SLOT_HOME = "serving/lifecycle.py"


def _receiver(node: ast.AST) -> str:
    """Last name of a name or attribute chain (``a.b`` -> ``b``, ``a`` -> ``a``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def side_doors(source: str, rel: str) -> list[str]:
    """Every way *source* (at package path *rel*) goes round the door."""
    found = []
    serve_slots = 0
    for node in ast.walk(ast.parse(source)):
        call = _receiver(node.func) if isinstance(node, ast.Call) else ""
        if rel.startswith("serving/") and call in MODEL_CALLS:
            found.append(f"{rel}:{node.lineno} runs the model without serve_slot")
        if call == "serve_slot" and rel == SLOT_HOME:
            serve_slots += 1
            if serve_slots > 1:
                found.append(f"{rel}:{node.lineno} calls serve_slot() twice")
        elif call in SLOT_CALLS and rel != SLOT_HOME and (
            call == "serve_slot" or rel.startswith("serving/")
        ):
            found.append(f"{rel}:{node.lineno} calls {call}() outside run_slot")
        if not isinstance(node, ast.Attribute):
            continue
        own = isinstance(node.value, ast.Name) and node.value.id == "self"
        where = f"{rel}:{node.lineno}"
        if rel not in QUEUE_CALLERS:
            if node.attr in QUEUE_MUTATORS and not own:
                found.append(f"{where} calls .{node.attr}()")
            if node.attr == "_waiting" and not own:
                found.append(f"{where} touches ._waiting")
        # Lifecycle.serve is the transition; any other .serve under
        # serving/ is an engine being run without serve_slot.
        if (
            rel.startswith("serving/")
            and node.attr == "serve"
            and not own
            and _receiver(node.value) not in ("life", "_life")
        ):
            found.append(f"{where} runs an engine without serve_slot")
    return found


def test_lifecycle_is_the_only_door():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        found += side_doors(path.read_text(), rel)
    assert found == []


def test_a_reopened_side_door_is_caught():
    """Put each closed door back and the walk above must see it."""
    rel = "serving/continuous.py"
    src = (PACKAGE / rel).read_text()
    anchor = "life.dispatch(admitted, now, resident=True)\n"
    assert src.count(anchor) == 1
    pad = " " * 16
    reopened = src.replace(anchor, anchor + pad + "life.queue.remove_served(admitted)\n")
    assert len(side_doors(reopened, rel)) == 1
    # The slot's one engine run, made past serve_slot, or a second one.
    rel = SLOT_HOME
    src = (PACKAGE / rel).read_text()
    anchor = "serve_slot(runner, batch, at)"
    assert src.count(anchor) == 1
    for door in (
        "runner.serve(batch)",
        "runner.model.greedy_decode(batch)",
        "pack_in_order(batch, 1, 8)",
        f"{anchor} and serve_slot(runner, batch[:1], at)",
    ):
        assert len(side_doors(src.replace(anchor, door), rel)) == 1, door
    # A step of the slot written out again in a caller.
    steps = (
        "serve_slot(engine, selected, now)",
        "apply_slot_size(engine, decision)",
        "life.drop_unservable(waiting, now)",
        "life.serve_batch(result, selected, now, 0.0, engine)",
    )
    for rel in ("serving/cluster.py", "serving/server.py"):
        src = (PACKAGE / rel).read_text()
        for step in steps:
            reopened = src + f"\n\ndef _slot(life, engine, decision):\n    {step}\n"
            assert len(side_doors(reopened, rel)) == 1, (rel, step)
    assert side_doors("serve_slot(engine, batch, 0.0)\n", "faults/x.py")
    assert side_doors("def f(q):\n    return q._waiting\n", "overload/x.py")


@pytest.mark.parametrize(
    "traced,tenanted,durable", list(itertools.product([False, True], repeat=3))
)
def test_one_shed_books_every_victim_once(traced, tenanted, durable):
    """What TCB009's seeded mutations checked, at run time: with any
    mix of planes, a shed victim is on every book exactly once."""
    tracer = Tracer() if traced else None
    tenancy = TenancyPlane(REGISTRY, seed=0) if tenanted else None
    dur = DurabilityPlane() if durable else None
    ov = OverloadController(OverloadConfig(limits=QueueLimits(max_tokens=100)))
    life = Lifecycle(trace=tracer, overload=ov, tenancy=tenancy, durability=dur)
    now = 2.0
    life.begin(_requests(), HORIZON, lambda: {"now": now})
    life.tick()
    life.admit_arrivals(now)
    shed = life.expire_and_shed(now)
    ids = [r.request_id for r in shed]
    assert ids and len(ids) == len(set(ids))
    assert not any(rid in life.queue for rid in ids)
    assert life.queue.queued_tokens <= 100
    m = life.metrics
    booked = Counter(r.request_id for r in m.rejected)
    assert all(booked[rid] == 1 for rid in ids)
    assert m.shed == ov.shed_total == len(ids)
    if tenanted:
        by_tenant = Counter(tenancy.key(r) for r in shed)
        assert {
            t: led.shed for t, led in tenancy.book.ledgers.items() if led.shed
        } == dict(by_tenant)
    if traced:
        outcomes = tracer.outcomes()
        assert all(outcomes[rid] == "rejected" for rid in ids)
        assert tracer.duplicate_terminals == 0
        spans = [e for e in tracer.overload_events if e.kind == "shed"]
        assert [e.attrs["count"] for e in spans] == [len(ids)]
    # Nothing left to shed: a second decision books nothing.
    assert life.expire_and_shed(now) == []
    assert m.shed == len(ids)


def test_resident_dispatch_survives_a_planned_crash():
    """The iteration-level dequeue happens inside Lifecycle.dispatch,
    after the dispatch crash point: a crash at the next step boundary,
    restored and resumed, ends where the uninterrupted run does, with
    the residents off the queue exactly once."""

    def run(dur, resume=None):
        life = Lifecycle(durability=dur)
        now = resume.now if resume else 0.5
        residents = list(resume.running) if resume else []
        life.begin(
            _requests(), HORIZON, lambda: {"now": now, "running": residents}, resume
        )
        while now <= 3.0:
            life.tick()
            life.admit_arrivals(now)
            admitted = [
                r for r in life.waiting(now) if r.length <= BATCH.row_length
            ][:3]
            life.dispatch(admitted, now, resident=True)
            residents += [(r, 1) for r in admitted]
            now += 0.5
        return life, [r for r, _ in residents]

    ref, ref_residents = run(None)
    assert ref_residents
    dur = DurabilityPlane(DurabilityConfig(checkpoint_every=2, crash=SchedulerCrash(3)))
    with pytest.raises(SchedulerCrashed):
        run(dur)
    got = dur.restore()
    assert got.step == 2 and got.running
    assert not any(r.request_id in got.queue for r, _ in got.running)
    life, residents = run(dur, got)
    assert residents == ref_residents
    assert state_digest(
        life.queue, life.metrics, now=0.0, next_arrival=life.next_arrival
    ) == state_digest(
        ref.queue, ref.metrics, now=0.0, next_arrival=ref.next_arrival
    )
