"""Property tests for the tracing layer (repro.obs).

Three invariants must hold for *any* traced serving run, fault-injected
or healthy, across all three serving loops:

1. every request reaches exactly one terminal state (served / expired /
   rejected / abandoned) — the span stream's conservation ledger,
2. each request's event timestamps are monotone non-decreasing,
3. the trace-derived outcome counts equal the run's
   :class:`~repro.serving.metrics.ServingMetrics` exactly
   (:meth:`~repro.obs.recorder.Tracer.reconcile` is called by the loops
   themselves, so these runs double-check it end to end).

The fault plans reuse ``faults/plan.py`` seeding, so every scenario is
replayable from its ``(chaos_rate, seed)`` pair.
"""

from __future__ import annotations

import pytest

from repro.config import BatchConfig
from repro.engine.concat import ConcatEngine
from repro.engine.slotted import SlottedConcatEngine
from repro.faults.engine import FaultyEngine
from repro.faults.plan import FaultConfig, FaultPlan
from repro.obs.recorder import NO_TRACE, Tracer
from repro.obs.spans import TERMINAL_KINDS, EventKind
from repro.overload import (
    BreakerConfig,
    DegradationConfig,
    OverloadConfig,
    OverloadController,
    QueueLimits,
    make_shedder,
)
from repro.scheduling.das import DASScheduler
from repro.scheduling.slotted_das import SlottedDASScheduler
from repro.serving.admission import AdmissionController
from repro.serving.cluster import ClusterSimulator
from repro.serving.continuous import ContinuousBatchingSimulator
from repro.serving.simulator import ServingSimulator
from repro.workload.deadlines import DeadlineModel
from repro.workload.generator import LengthDistribution, WorkloadGenerator

BATCH = BatchConfig(num_rows=8, row_length=64)

SCENARIOS = [
    # (loop, chaos_rate, seed)
    ("single", 0.0, 0),
    ("single", 0.2, 1),
    ("single", 0.4, 2),
    ("cluster", 0.0, 3),
    ("cluster", 0.25, 4),
    ("continuous", 0.0, 5),
    ("continuous", 0.3, 6),
    ("slotted", 0.2, 7),
    # "+ov" runs the same loop with the full overload plane active
    # (bounded queue + shedding + degradation + breaker) — combined
    # overload and fault injection must keep every invariant exact.
    ("single+ov", 0.0, 8),
    ("single+ov", 0.3, 9),
    ("cluster+ov", 0.25, 10),
    ("continuous+ov", 0.3, 11),
]


def _workload(seed: int) -> WorkloadGenerator:
    return WorkloadGenerator(
        rate=150.0,
        lengths=LengthDistribution(family="normal", mean=12, spread=8, low=3, high=48),
        deadlines=DeadlineModel(base_slack=2.0, jitter=1.0),
        horizon=2.0,
        seed=seed,
    )


def _faulty(engine, rate: float, seed: int):
    if rate == 0.0:
        return engine
    return FaultyEngine(
        engine, FaultPlan(FaultConfig.chaos(rate, downtime=0.2), seed=seed)
    )


def _overload_controller(seed: int) -> OverloadController:
    return OverloadController(
        OverloadConfig(
            limits=QueueLimits(max_tokens=BATCH.capacity_tokens),
            shedding=make_shedder("random", seed=seed),
            breaker=BreakerConfig(failure_threshold=2, recovery_time=0.2),
            degradation=DegradationConfig(
                shed_enter_delay=0.3,
                shed_exit_delay=0.1,
                brownout_enter_delay=0.8,
                brownout_exit_delay=0.3,
                min_window=8,
                shed_min_slack=0.5,
                brownout_min_slack=1.0,
            ),
        )
    )


def _run_traced(loop: str, rate: float, seed: int):
    tracer = Tracer()
    wl = _workload(seed)
    loop, _, suffix = loop.partition("+")
    ov = _overload_controller(seed) if suffix == "ov" else None
    if loop == "single":
        sim = ServingSimulator(
            DASScheduler(BATCH),
            _faulty(ConcatEngine(BATCH), rate, seed),
            admission=AdmissionController(BATCH),
            trace=tracer,
            overload=ov,
        )
        metrics = sim.run(wl).metrics
    elif loop == "slotted":
        sim = ServingSimulator(
            SlottedDASScheduler(BATCH),
            _faulty(SlottedConcatEngine(BATCH), rate, seed),
            trace=tracer,
        )
        metrics = sim.run(wl).metrics
    elif loop == "cluster":
        sim = ClusterSimulator(
            DASScheduler(BATCH),
            [_faulty(ConcatEngine(BATCH), rate, seed + i) for i in range(2)],
            trace=tracer,
            overload=ov,
        )
        metrics = sim.run(wl).metrics
    else:
        sim = ContinuousBatchingSimulator(
            BATCH,
            seed=seed,
            fault_plan=(
                FaultPlan(FaultConfig.chaos(rate, downtime=0.2), seed=seed)
                if rate
                else None
            ),
            trace=tracer,
            overload=ov,
        )
        metrics = sim.run(wl)
    return tracer, metrics


@pytest.mark.parametrize("loop,rate,seed", SCENARIOS)
class TestTraceIntegrity:
    def test_exactly_one_terminal_span_per_request(self, loop, rate, seed):
        tracer, metrics = _run_traced(loop, rate, seed)
        assert tracer.num_requests == metrics.arrived
        outcomes = tracer.outcomes()
        assert len(outcomes) == metrics.arrived
        for rid, events in tracer.events.items():
            terminals = [e for e in events if e.kind in TERMINAL_KINDS]
            assert len(terminals) == 1, f"request {rid}"
            assert terminals[-1] is events[-1], (
                f"request {rid}: terminal event is not last"
            )

    def test_timestamps_monotone_per_request(self, loop, rate, seed):
        tracer, _ = _run_traced(loop, rate, seed)
        for rid, events in tracer.events.items():
            ts = [e.t for e in events]
            assert ts == sorted(ts), f"request {rid}: {ts}"
            assert events[0].kind is EventKind.ARRIVE

    def test_counts_reconcile_with_metrics(self, loop, rate, seed):
        tracer, metrics = _run_traced(loop, rate, seed)
        counts = tracer.outcome_counts()
        assert counts["served"] == metrics.num_served
        assert counts["expired"] == len(metrics.expired)
        assert counts["rejected"] == len(metrics.rejected)
        assert counts["abandoned"] == len(metrics.abandoned)
        # reconcile() re-checks the same and must not raise.
        tracer.reconcile(metrics)

    def test_spans_cover_every_request(self, loop, rate, seed):
        tracer, metrics = _run_traced(loop, rate, seed)
        spans = tracer.spans()
        by_request: dict[int, list] = {}
        for s in spans:
            by_request.setdefault(s.request_id, []).append(s)
        assert len(by_request) == metrics.arrived
        for rid, ss in by_request.items():
            # Spans tile the lifetime: contiguous, ending in a terminal.
            for a, b in zip(ss, ss[1:]):
                assert a.t_end == b.t_start, f"request {rid}: gap"
            assert ss[-1].is_terminal
            assert ss[-1].duration == 0.0


class TestTracerDiscipline:
    def test_no_trace_is_inert(self):
        assert NO_TRACE.enabled is False
        # Arbitrary method access is a no-op, not an error.
        NO_TRACE.arrive(None, 0.0)
        NO_TRACE.anything_at_all(1, 2, 3)

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        sim = ServingSimulator(
            DASScheduler(BATCH), ConcatEngine(BATCH), trace=tracer
        )
        sim.run(_workload(0))
        assert tracer.events == {}
        assert tracer.batches == []
        assert tracer.decisions == []

    def test_reselection_counted_once_per_attempt(self):
        # Overloaded + OOM-faulted: split-retry leaves requests queued
        # and they are selected again in a later slot.
        batch = BatchConfig(num_rows=2, row_length=20)
        plan = FaultPlan(FaultConfig(oom_rate=0.5, oom_threshold=0.3), seed=0)
        tracer = Tracer()
        ServingSimulator(
            DASScheduler(batch),
            FaultyEngine(ConcatEngine(batch), plan),
            trace=tracer,
        ).run(
            WorkloadGenerator(
                rate=300.0,
                lengths=LengthDistribution(
                    family="normal", mean=8, spread=4, low=3, high=20
                ),
                deadlines=DeadlineModel(base_slack=4.0),
                horizon=2.0,
                seed=0,
            )
        )
        assert max(tracer.attempts.values()) > 1
        for rid, events in tracer.events.items():
            attempts = [
                e.attrs["attempt"]
                for e in events
                if e.kind is EventKind.SCHEDULED
            ]
            assert attempts == list(range(1, len(attempts) + 1))
            assert tracer.attempts.get(rid, 0) == len(attempts)

    def test_terminal_dedupe(self):
        from repro.types import Request

        tracer = Tracer()
        r = Request(request_id=1, length=4, arrival=0.0, deadline=5.0)
        tracer.arrive(r, 0.0)
        tracer.served([r], 1.0)
        tracer.expired([r], 2.0)  # duplicate terminal: must be dropped
        assert tracer.outcomes() == {1: "served"}
        assert tracer.duplicate_terminals == 1
        assert len(tracer.events[1]) == 2

    def test_terminal_clamp_keeps_timestamps_monotone(self):
        from repro.types import Request

        tracer = Tracer()
        r = Request(request_id=2, length=4, arrival=3.0, deadline=5.0)
        tracer.arrive(r, 3.0)
        # Terminal timestamp earlier than the last recorded event (a
        # post-horizon arrival expired "at the horizon"): clamp to 3.0.
        tracer.expired([r], 2.0)
        ts = [e.t for e in tracer.events[2]]
        assert ts == sorted(ts)
        assert ts[-1] == 3.0


class TestOneLog:
    """The log is the only store; every view is a fold of it."""

    def _requests(self, n=6):
        from repro.types import Request

        return [
            Request(request_id=i, length=4 + i, arrival=0.0, deadline=9.0)
            for i in range(n)
        ]

    def _drive(self, tracer, requests, t0):
        for r in requests:
            tracer.arrive(r, t0)
            tracer.enqueue(r, t0)
        tracer.decision(t0, 0.0, {"scheduler": "das"})
        tracer.scheduled(requests, t0 + 0.1, engine=1)
        tracer.executed(requests, t0 + 0.1, 0.5, engine=1)
        tracer.batch(t0 + 0.1, 0.5, engine=1, useful_tokens=9)
        tracer.requeued(requests[:1], t0 + 0.6)
        tracer.scheduled(requests[:1], t0 + 0.7, engine=0)
        tracer.served(requests, t0 + 1.2)

    def test_reading_mid_run_then_emitting_more(self):
        """The fold is incremental and idempotent: a run read half way
        (twice) ends up exactly like the same run never read."""
        first, second = self._requests()[:3], self._requests()[3:]
        read, unread = Tracer(), Tracer()
        for tracer in (read, unread):
            self._drive(tracer, first, 0.0)
        events = read.events
        spans_mid = read.spans()
        assert read.spans() == spans_mid
        assert read.events is events and len(events) == 3
        assert read.attempts == {0: 2, 1: 1, 2: 1}
        assert len(read.batches) == 1
        for tracer in (read, unread):
            self._drive(tracer, second, 2.0)
            tracer.expired(second, 9.0)  # duplicates
        assert read.events is events and len(events) == 6
        assert read.spans()[: len(spans_mid)] == spans_mid
        assert read.events == unread.events
        assert read.spans() == unread.spans()
        assert read.attempts == unread.attempts
        assert read.batches == unread.batches and len(read.batches) == 2
        assert read.decisions == unread.decisions
        assert read.duplicate_terminals == unread.duplicate_terminals == 3
        assert read.outcomes() == unread.outcomes()

    def test_duplicate_terminal_after_restore(self):
        """A restored tracer still knows who has ended, and when every
        unfinished request was last seen."""
        from repro.watermark import thaw

        done, pending = self._requests()[:3], self._requests()[3:]
        tracer = Tracer()
        self._drive(tracer, done, 0.0)
        for r in pending:
            tracer.arrive(r, 3.0)
        checkpoint = tracer.export_state()
        tracer.served(pending, 4.0)  # after the checkpoint: not restored

        restored = Tracer()
        restored.apply_state(thaw(checkpoint))
        assert restored.outcomes() == {r.request_id: "served" for r in done}
        assert restored.duplicate_terminals == 0
        restored.expired(done, 5.0)  # ended before the checkpoint
        assert restored.duplicate_terminals == len(done)
        assert restored.outcomes() == {r.request_id: "served" for r in done}
        # The clamp survives too: last seen at 3.0, swept "at" 2.0.
        restored.abandoned(pending, 2.0)
        assert [restored.events[r.request_id][-1].t for r in pending] == [3.0] * 3
        # The crashed tracer's log was not touched by any of it.
        assert len(tracer.log) == checkpoint["events"].n + len(pending)
        assert tracer.duplicate_terminals == 0

    def test_disabled_tracer_holds_nothing(self):
        tracer = Tracer(enabled=False)
        requests = self._requests()
        self._drive(tracer, requests, 0.0)
        tracer.rejected(requests[0], 1.0)
        tracer.abandoned(requests, 1.0)
        tracer.overload(0.0, "shed", n=1)
        tracer.durability(0.0, "snapshot", seq=0)
        tracer.health(0.0, "probe", engine=0)
        tracer.tenant(0.0, "quota", tenant="batch")
        assert tracer.log == []
        assert tracer.events == {} and tracer.attempts == {}
        assert tracer.outcomes() == {} and tracer.spans() == []
        assert tracer.duplicate_terminals == 0
        assert tracer._outcome == {} and tracer._last_t == {}

    def test_span_terminal_flag(self):
        tracer = Tracer()
        self._drive(tracer, self._requests(2), 0.0)
        flags = [(s.phase, s.is_terminal) for s in tracer.spans()]
        assert all(
            terminal == (phase in {k.value for k in TERMINAL_KINDS})
            for phase, terminal in flags
        )
        assert sum(terminal for _, terminal in flags) == 2
