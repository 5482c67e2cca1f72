"""Unit + property tests for the overload plane (repro.overload).

Four layers, bottom-up:

1. backpressure — ``QueueLimits`` validation and the typed
   ``QueuePressure`` reading,
2. shedding — policy ordering, victim selection until both excesses
   clear, ``RandomShed`` replay determinism,
3. breaker — the closed → open → half-open state machine on the
   simulated clock, including probe semantics,
4. controller — hysteresis degradation, brownout capping, conservation
   under shedding in all three serving loops, and the determinism
   property the ISSUE pins: same seed + same fault plan ⇒ identical
   transition log.
"""

from __future__ import annotations

import pytest

from repro.config import BatchConfig
from repro.engine.concat import ConcatEngine
from repro.faults.engine import FaultyEngine
from repro.faults.plan import FaultConfig, FaultPlan
from repro.overload import (
    BackpressureError,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    DegradationConfig,
    LatestDeadlineFirst,
    LowestUtilityFirst,
    OverloadConfig,
    OverloadController,
    QueueLimits,
    QueuePressure,
    RandomShed,
    make_shedder,
)
from repro.scheduling.baselines import FCFSScheduler
from repro.scheduling.das import DASScheduler
from repro.scheduling.queue import RequestQueue
from repro.serving.cluster import ClusterSimulator
from repro.serving.continuous import ContinuousBatchingSimulator
from repro.serving.lifecycle import Lifecycle
from repro.serving.metrics import ServingMetrics
from repro.serving.simulator import ServingSimulator
from repro.types import Request
from repro.workload.deadlines import DeadlineModel
from repro.workload.generator import LengthDistribution, WorkloadGenerator

BATCH = BatchConfig(num_rows=8, row_length=64)


def _stable_summary(metrics: ServingMetrics) -> dict:
    """Metrics summary minus wall-clock scheduler overhead.

    ``sched_overhead`` is real decision-loop time (the sanctioned
    TCB003 exception for Fig. 16), so it is the one summary entry that
    legitimately differs between two otherwise identical runs.
    """
    out = metrics.summary()
    out.pop("sched_overhead")
    return out


def _req(rid: int, length: int = 4, arrival: float = 0.0, deadline: float = 100.0):
    return Request(request_id=rid, length=length, arrival=arrival, deadline=deadline)


def _workload(seed: int, rate: float = 300.0, horizon: float = 1.5):
    return WorkloadGenerator(
        rate=rate,
        lengths=LengthDistribution(family="normal", mean=12, spread=8, low=3, high=48),
        deadlines=DeadlineModel(base_slack=2.0, jitter=1.0),
        horizon=horizon,
        seed=seed,
    )


# ---------------------------------------------------------------------- #
# Backpressure: limits + pressure reading
# ---------------------------------------------------------------------- #


class TestQueueLimits:
    def test_default_is_unbounded(self):
        assert QueueLimits().unbounded
        assert not QueueLimits(max_tokens=100).unbounded
        assert not QueueLimits(max_requests=10).unbounded

    @pytest.mark.parametrize(
        "kwargs", [{"max_requests": 0}, {"max_tokens": 0}, {"max_requests": -1}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QueueLimits(**kwargs)

    def test_pressure_excess(self):
        limits = QueueLimits(max_requests=2, max_tokens=20)
        p = QueuePressure(queued_requests=5, queued_tokens=28, limits=limits)
        assert p.excess_requests == 3
        assert p.excess_tokens == 8
        assert p.overloaded

    def test_pressure_under_limits(self):
        p = QueuePressure(
            queued_requests=1, queued_tokens=5, limits=QueueLimits(max_tokens=20)
        )
        assert p.excess_requests == 0
        assert p.excess_tokens == 0
        assert not p.overloaded

    def test_queue_pressure_is_o1_and_tracked(self):
        q = RequestQueue()
        q.extend([_req(0, 5), _req(1, 7)])
        assert q.queued_tokens == 12
        q.expire(200.0)  # deadline 100 < 200: both expire
        assert q.queued_tokens == 0
        p = q.pressure(QueueLimits(max_tokens=10))
        assert p.queued_tokens == 0 and not p.overloaded

    def test_backpressure_error_carries_reason_and_pressure(self):
        p = QueuePressure(3, 30, QueueLimits(max_tokens=10))
        err = BackpressureError("queue-full", p)
        assert err.reason == "queue-full"
        assert err.pressure is p
        assert "queue-full" in str(err) and "30 tokens" in str(err)


# ---------------------------------------------------------------------- #
# Shedding policies
# ---------------------------------------------------------------------- #


class TestSheddingPolicies:
    WAITING = [
        _req(0, length=2, deadline=10.0),  # utility 0.5
        _req(1, length=8, deadline=30.0),  # utility 0.125
        _req(2, length=4, deadline=20.0),  # utility 0.25
    ]

    def test_lowest_utility_order(self):
        order = LowestUtilityFirst().order(self.WAITING, 0.0)
        assert [r.request_id for r in order] == [1, 2, 0]

    def test_latest_deadline_order(self):
        order = LatestDeadlineFirst().order(self.WAITING, 0.0)
        assert [r.request_id for r in order] == [1, 2, 0]
        # Tie on deadline breaks on request_id.
        tied = [_req(5, deadline=9.0), _req(3, deadline=9.0)]
        assert [r.request_id for r in LatestDeadlineFirst().order(tied, 0.0)] == [3, 5]

    def test_select_victims_clears_both_excesses(self):
        limits = QueueLimits(max_requests=2, max_tokens=6)
        # 3 requests / 14 tokens queued: excess = 1 request, 8 tokens.
        p = QueuePressure(3, 14, limits)
        victims = LowestUtilityFirst().select_victims(self.WAITING, p, 0.0)
        # Shedding id=1 (8 tokens) clears both excesses at once.
        assert [r.request_id for r in victims] == [1]

    def test_select_victims_token_pressure_takes_several(self):
        p = QueuePressure(3, 14, QueueLimits(max_tokens=4))
        victims = LatestDeadlineFirst().select_victims(self.WAITING, p, 0.0)
        # Needs 10 tokens: id=1 frees 8, id=2 frees 4 more.
        assert [r.request_id for r in victims] == [1, 2]

    def test_select_victims_no_pressure_is_empty(self):
        p = QueuePressure(3, 14, QueueLimits())
        assert LowestUtilityFirst().select_victims(self.WAITING, p, 0.0) == []

    def test_random_shed_replays_exactly(self):
        a, b = RandomShed(seed=7), RandomShed(seed=7)
        seq_a = [
            [r.request_id for r in a.order(self.WAITING, 0.0)] for _ in range(3)
        ]
        seq_b = [
            [r.request_id for r in b.order(self.WAITING, 0.0)] for _ in range(3)
        ]
        assert seq_a == seq_b
        a.reset()
        assert [r.request_id for r in a.order(self.WAITING, 0.0)] == seq_a[0]

    def test_random_shed_ignores_caller_order(self):
        fwd, rev = RandomShed(seed=3), RandomShed(seed=3)
        got_fwd = [r.request_id for r in fwd.order(self.WAITING, 0.0)]
        got_rev = [r.request_id for r in rev.order(self.WAITING[::-1], 0.0)]
        assert got_fwd == got_rev

    def test_random_shed_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            RandomShed(seed=-1)

    def test_make_shedder(self):
        assert make_shedder("lowest-utility").name == "lowest-utility"
        assert make_shedder("latest-deadline").name == "latest-deadline"
        rs = make_shedder("random", seed=5)
        assert isinstance(rs, RandomShed) and rs.seed == 5
        with pytest.raises(ValueError, match="unknown shedding policy"):
            make_shedder("coin-flip")


# ---------------------------------------------------------------------- #
# Circuit breaker state machine
# ---------------------------------------------------------------------- #


class TestCircuitBreaker:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"recovery_time": 0.0},
            {"half_open_probes": 0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            BreakerConfig(**kwargs)

    def test_trips_after_consecutive_failures_only(self):
        br = CircuitBreaker(BreakerConfig(failure_threshold=3, recovery_time=1.0))
        br.record_failure(0.1)
        br.record_failure(0.2)
        br.record_success(0.3)  # resets the streak
        br.record_failure(0.4)
        br.record_failure(0.5)
        assert br.state is BreakerState.CLOSED
        br.record_failure(0.6)
        assert br.is_open
        assert br.retry_at == pytest.approx(1.6)

    def test_open_blocks_until_recovery_then_half_opens(self):
        br = CircuitBreaker(BreakerConfig(failure_threshold=1, recovery_time=0.5))
        br.record_failure(1.0, kind="crash")
        assert br.is_open
        assert not br.allow(1.2)
        assert br.state is BreakerState.OPEN
        # The allow() check at retry_at IS the probe admission.
        assert br.allow(1.5)
        assert br.state is BreakerState.HALF_OPEN

    def test_probe_success_closes_after_required_probes(self):
        br = CircuitBreaker(
            BreakerConfig(failure_threshold=1, recovery_time=0.5, half_open_probes=2)
        )
        br.record_failure(0.0)
        assert br.allow(0.5)
        br.record_success(0.6)
        assert br.state is BreakerState.HALF_OPEN  # one probe is not enough
        assert br.allow(0.7)
        br.record_success(0.8)
        assert br.state is BreakerState.CLOSED

    def test_probe_failure_reopens_immediately(self):
        br = CircuitBreaker(BreakerConfig(failure_threshold=2, recovery_time=0.5))
        br.record_failure(0.0)
        br.record_failure(0.1)
        assert br.allow(0.6)  # half-open
        br.record_failure(0.7, kind="oom")
        assert br.is_open
        assert br.retry_at == pytest.approx(1.2)
        # A single failure must NOT re-trip after the next probe closes
        # it — the consecutive-failure counter was reset.
        assert br.allow(1.2)
        br.record_success(1.3)
        assert br.state is BreakerState.CLOSED
        br.record_failure(1.4)
        assert br.state is BreakerState.CLOSED

    def test_transition_log_records_full_history(self):
        br = CircuitBreaker(
            BreakerConfig(failure_threshold=1, recovery_time=0.5), engine=3
        )
        br.record_failure(0.0, kind="crash")
        br.allow(0.5)
        br.record_success(0.6)
        states = [(t.old, t.new) for t in br.transitions]
        assert states == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]
        assert all(t.engine == 3 for t in br.transitions)
        ts = [t.t for t in br.transitions]
        assert ts == sorted(ts)


# ---------------------------------------------------------------------- #
# Degradation controller
# ---------------------------------------------------------------------- #


def _degradation(**overrides) -> DegradationConfig:
    base = dict(
        shed_enter_delay=1.0,
        shed_exit_delay=0.5,
        brownout_enter_delay=2.0,
        brownout_exit_delay=1.0,
        miss_window=8,
        min_window=4,
        shed_enter_miss=0.4,
        shed_exit_miss=0.2,
        brownout_enter_miss=0.7,
        brownout_exit_miss=0.4,
        shed_min_slack=0.5,
        brownout_min_slack=2.0,
    )
    base.update(overrides)
    return DegradationConfig(**base)


def _aged_queue(age: float, *, now: float) -> RequestQueue:
    q = RequestQueue()
    q.add(_req(0, arrival=now - age, deadline=now + 100.0))
    return q


class TestDegradationConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"shed_exit_delay": 1.5},  # exit above enter
            {"brownout_exit_miss": 0.9},
            {"brownout_enter_delay": 0.5},  # below shed enter
            {"miss_window": 0},
            {"brownout_batch_fraction": 0.0},
            {"shed_min_slack": -1.0},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            _degradation(**overrides)


class TestOverloadControllerHysteresis:
    def _controller(self, **overrides) -> OverloadController:
        return OverloadController(
            OverloadConfig(degradation=_degradation(**overrides))
        )

    def test_delay_drives_levels_with_hysteresis(self):
        ov = self._controller()
        assert ov.update(10.0, _aged_queue(0.2, now=10.0)).label == "normal"
        # 0.7 is between exit (0.5) and enter (1.0): stays NORMAL.
        assert ov.update(11.0, _aged_queue(0.7, now=11.0)).label == "normal"
        assert ov.update(12.0, _aged_queue(1.2, now=12.0)).label == "shed"
        # ... and the same 0.7 now stays SHED — that gap is the hysteresis.
        assert ov.update(13.0, _aged_queue(0.7, now=13.0)).label == "shed"
        assert ov.update(14.0, _aged_queue(2.5, now=14.0)).label == "brownout"
        # Between brownout exit (1.0) and enter (2.0): stays BROWNOUT.
        assert ov.update(15.0, _aged_queue(1.5, now=15.0)).label == "brownout"
        # Below every exit threshold: straight back to NORMAL.
        assert ov.update(16.0, RequestQueue()).label == "normal"
        labels = [(t.old, t.new) for t in ov.transitions]
        assert labels == [
            ("normal", "shed"),
            ("shed", "brownout"),
            ("brownout", "normal"),
        ]

    def test_miss_rate_needs_min_window(self):
        ov = self._controller()
        ov.observe_outcomes(missed=3)  # 3 < min_window=4: not trusted
        assert ov.miss_rate == 0.0
        assert ov.update(0.0, RequestQueue()).label == "normal"
        ov.observe_outcomes(missed=1)
        assert ov.miss_rate == 1.0
        assert ov.update(0.1, RequestQueue()).label == "brownout"

    def test_miss_window_is_rolling(self):
        ov = self._controller()
        ov.observe_outcomes(missed=8)
        assert ov.miss_rate == 1.0
        ov.observe_outcomes(served=8)  # window (maxlen 8) fully displaced
        assert ov.miss_rate == 0.0

    def test_level_is_max_of_signals(self):
        ov = self._controller()
        ov.observe_outcomes(served=2, missed=2)  # miss 0.5 >= shed_enter 0.4
        assert ov.update(0.0, RequestQueue()).label == "shed"

    def test_admission_floor_tightens_with_level(self):
        ov = self._controller()
        tight = _req(1, arrival=0.0, deadline=1.0)  # slack 1.0 at t=0
        loose = _req(2, arrival=0.0, deadline=10.0)
        assert ov.deny([tight, loose]) == []
        ov.update(5.0, _aged_queue(1.5, now=5.0))  # -> SHED (floor 0.5)
        # Slack 0.2 < 0.5 is denied, slack 1.0 >= 0.5 is not.
        shed = [_req(3, arrival=5.0, deadline=5.2), _req(4, arrival=5.0, deadline=6.0)]
        assert ov.deny(shed) == [0]
        ov.update(6.0, _aged_queue(2.5, now=6.0))  # -> BROWNOUT (floor 2.0)
        # Slack 3.0 >= 2.0 is not denied, slack 1.0 < 2.0 is.
        brown = [_req(6, arrival=6.0, deadline=9.0), _req(5, arrival=6.0, deadline=7.0)]
        assert ov.deny(brown) == [1]
        assert ov.denied == 2

    def test_brownout_caps_batch_and_budget(self):
        ov = self._controller(brownout_batch_fraction=0.5)
        batch = [_req(i) for i in range(4)]
        assert ov.cap_batch(batch) == batch  # NORMAL: untouched
        assert ov.scale_budget(100) == 100
        ov.update(5.0, _aged_queue(3.0, now=5.0))  # -> BROWNOUT
        assert ov.cap_batch(batch) == batch[:2]
        assert ov.cap_batch([batch[0]]) == [batch[0]]  # never below 1
        assert ov.scale_budget(100) == 50
        assert ov.scale_budget(1) == 1

    def test_begin_run_resets_everything(self):
        ov = self._controller()
        ov.observe_outcomes(missed=8)
        ov.update(5.0, _aged_queue(3.0, now=5.0))
        ov.deny([_req(1, arrival=5.0, deadline=5.1)])
        assert ov.level.label == "brownout" and ov.denied == 1
        ov.begin_run()
        assert ov.level.label == "normal"
        assert ov.transitions == [] and ov.denied == 0 and ov.miss_rate == 0.0


class TestOverloadControllerShedding:
    def test_maybe_shed_restores_limits_and_ledgers(self):
        ov = OverloadController(
            OverloadConfig(
                limits=QueueLimits(max_requests=2),
                shedding=LowestUtilityFirst(),
            )
        )
        life = Lifecycle(overload=ov)
        q, metrics = life.queue, life.metrics
        reqs = [_req(i, length=2 * (i + 1)) for i in range(4)]
        q.extend(reqs)
        metrics.arrived = 4
        shed = life.expire_and_shed(0.0)
        # Longest two (lowest utility) go: ids 3 then 2.
        assert [r.request_id for r in shed] == [3, 2]
        assert len(q) == 2
        assert metrics.shed == 2 and metrics.num_rejected == 2
        assert ov.shed_total == 2
        # Back under limits: a second call is a no-op.
        assert life.expire_and_shed(0.1) == []

    def test_unbounded_never_sheds(self):
        ov = OverloadController(OverloadConfig())
        life = Lifecycle(overload=ov)
        q = life.queue
        q.extend([_req(i) for i in range(100)])
        assert life.expire_and_shed(0.0) == []
        assert len(q) == 100

    def test_inert_flag(self):
        assert OverloadConfig().inert
        assert not OverloadConfig(limits=QueueLimits(max_tokens=1)).inert
        assert not OverloadConfig(breaker=BreakerConfig()).inert
        assert not OverloadConfig(degradation=DegradationConfig()).inert


# ---------------------------------------------------------------------- #
# End-to-end: loops under overload
# ---------------------------------------------------------------------- #


def _full_controller(seed: int = 0) -> OverloadController:
    return OverloadController(
        OverloadConfig(
            limits=QueueLimits(max_tokens=BATCH.capacity_tokens),
            shedding=make_shedder("latest-deadline", seed=seed),
            breaker=BreakerConfig(failure_threshold=2, recovery_time=0.2),
            degradation=_degradation(),
        )
    )


class TestLoopsUnderOverload:
    def test_single_loop_sheds_and_conserves(self):
        sim = ServingSimulator(
            FCFSScheduler(BATCH),
            ConcatEngine(BATCH),
            overload=_full_controller(),
        )
        metrics = sim.run(_workload(0, rate=500.0)).metrics
        metrics.assert_conservation()
        assert metrics.shed > 0
        assert metrics.shed <= metrics.num_rejected

    def test_cluster_loop_sheds_and_conserves(self):
        sim = ClusterSimulator(
            DASScheduler(BATCH),
            [ConcatEngine(BATCH) for _ in range(2)],
            overload=_full_controller(),
        )
        metrics = sim.run(_workload(1, rate=600.0)).metrics
        metrics.assert_conservation()
        assert metrics.shed > 0

    def test_continuous_loop_sheds_and_conserves(self):
        sim = ContinuousBatchingSimulator(
            BATCH, seed=2, overload=_full_controller()
        )
        metrics = sim.run(_workload(2, rate=600.0))
        metrics.assert_conservation()
        assert metrics.shed > 0

    def test_inert_controller_is_bit_identical(self):
        def run(overload):
            sim = ServingSimulator(
                DASScheduler(BATCH), ConcatEngine(BATCH), overload=overload
            )
            return sim.run(_workload(3, rate=250.0)).metrics

        plain = run(None)
        inert = run(OverloadController(OverloadConfig()))
        assert _stable_summary(inert) == _stable_summary(plain)
        assert inert.finish_times == plain.finish_times
        assert [r.request_id for r in inert.served] == [
            r.request_id for r in plain.served
        ]

    def test_transition_log_is_deterministic(self):
        # Failure/crash-weighted chaos (stragglers would just slow the
        # clock) so the breaker genuinely trips, recovers and re-trips.
        def run(seed: int):
            ov = _full_controller(seed=0)
            plan = FaultPlan(
                FaultConfig(failure_rate=0.5, crash_rate=0.2, downtime=0.3),
                seed=seed,
            )
            sim = ServingSimulator(
                FCFSScheduler(BATCH),
                FaultyEngine(ConcatEngine(BATCH), plan),
                overload=ov,
            )
            metrics = sim.run(_workload(4, rate=400.0, horizon=4.0)).metrics
            return ov, metrics

        ov_a, m_a = run(seed=11)
        ov_b, m_b = run(seed=11)
        log_a, log_b = ov_a.transition_log(), ov_b.transition_log()
        assert log_a == log_b
        assert any(r[0] == "breaker" for r in log_a)
        assert any(r[0] == "level" for r in log_a)
        assert _stable_summary(m_a) == _stable_summary(m_b)
        # A different fault plan produces a different breaker history.
        ov_c, _ = run(seed=12)
        assert ov_c.transition_log() != log_a

    def test_transition_log_merges_and_sorts(self):
        ov = _full_controller()
        ov.update(1.0, _aged_queue(1.5, now=1.0))  # level: normal -> shed
        ov.record_result(1, 0.5, ok=False, kind="crash")
        ov.record_result(1, 0.6, ok=False, kind="crash")  # engine 1 opens
        rows = ov.transition_log()
        kinds = [(r[0], r[2]) for r in rows]
        assert ("level", -1) in kinds and ("breaker", 1) in kinds
        ts = [r[1] for r in rows]
        assert ts == sorted(ts)
