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
