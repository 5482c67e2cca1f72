"""Tests for the fault-tolerance layer: plans, engine wrapper, recovery
policies, and the conservation invariant under chaos in every loop."""

import numpy as np
import pytest

from repro.config import BatchConfig
from repro.engine.base import MIN_SLOT
from repro.engine.concat import ConcatEngine
from repro.engine.cost_model import GPUCostModel
from repro.faults import (
    BatchFailure,
    EngineDown,
    FaultConfig,
    FaultConfigError,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultyEngine,
    RetryPolicy,
    serve_slot,
)
from repro.scheduling.baselines import FCFSScheduler
from repro.scheduling.das import DASScheduler
from repro.serving.cluster import ClusterSimulator
from repro.serving.continuous import ContinuousBatchingSimulator
from repro.serving.lifecycle import Lifecycle
from repro.serving.simulator import ServingSimulator
from repro.types import Request, make_requests
from repro.workload.deadlines import DeadlineModel
from repro.workload.generator import LengthDistribution, WorkloadGenerator


def _batch(rows=4, L=20):
    return BatchConfig(num_rows=rows, row_length=L)


def _workload(rate=200.0, horizon=3.0, seed=0, base_slack=1.0):
    return WorkloadGenerator(
        rate=rate,
        lengths=LengthDistribution(family="normal", mean=8, spread=4, low=3, high=20),
        deadlines=DeadlineModel(base_slack=base_slack, jitter=0.5),
        horizon=horizon,
        seed=seed,
    )


def _faulty(config, seed=0, batch=None):
    batch = batch or _batch()
    return FaultyEngine(ConcatEngine(batch), FaultPlan(config, seed=seed))


class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultConfig(failure_rate=-0.1)
        with pytest.raises(ValueError, match="sum"):
            FaultConfig(failure_rate=0.6, crash_rate=0.6)

    def test_shape_parameters_validated(self):
        with pytest.raises(ValueError, match="straggler_multiplier"):
            FaultConfig(straggler_multiplier=(0.5, 2.0))
        with pytest.raises(ValueError, match="downtime"):
            FaultConfig(downtime=0.0)
        with pytest.raises(ValueError, match="oom_threshold"):
            FaultConfig(oom_threshold=0.0)

    def test_is_zero(self):
        assert FaultConfig().is_zero
        assert not FaultConfig(failure_rate=0.1).is_zero

    def test_chaos_preset_splits_rate(self):
        c = FaultConfig.chaos(0.5)
        assert c.failure_rate == pytest.approx(0.2)
        assert c.straggler_rate == pytest.approx(0.15)
        assert c.oom_rate == pytest.approx(0.1)
        assert c.crash_rate == pytest.approx(0.05)
        assert FaultConfig.chaos(0.0).is_zero
        with pytest.raises(ValueError):
            FaultConfig.chaos(1.5)


class TestTypedValidation:
    """ISSUE 9 satellite: ill-formed plans raise FaultConfigError (a
    ValueError subclass) instead of silently degrading."""

    def test_error_type_is_value_error_subclass(self):
        assert issubclass(FaultConfigError, ValueError)
        with pytest.raises(FaultConfigError):
            FaultConfig(failure_rate=2.0)

    def test_inverted_straggler_range(self):
        with pytest.raises(FaultConfigError, match="lo <= hi"):
            FaultConfig(straggler_multiplier=(6.0, 2.0))

    def test_negative_straggler_range(self):
        with pytest.raises(FaultConfigError, match="straggler_multiplier"):
            FaultConfig(straggler_multiplier=(-2.0, 6.0))

    def test_non_finite_parameters(self):
        with pytest.raises(FaultConfigError, match="finite"):
            FaultConfig(straggler_multiplier=(1.0, float("inf")))
        with pytest.raises(FaultConfigError, match="finite"):
            FaultConfig(downtime=float("nan"))

    def test_zero_probability_event_cannot_carry_payload(self):
        """A NONE event claiming a multiplier or downtime is a plan bug
        — the slot says 'no fault' while smuggling in fault shape."""
        with pytest.raises(FaultConfigError, match="multiplier"):
            FaultEvent(kind=FaultKind.NONE, multiplier=4.0)
        with pytest.raises(FaultConfigError, match="downtime"):
            FaultEvent(kind=FaultKind.NONE, downtime=1.0)
        with pytest.raises(FaultConfigError, match="multiplier"):
            FaultEvent(kind=FaultKind.FAILURE, multiplier=2.0)

    def test_event_kind_shape_pairing(self):
        with pytest.raises(FaultConfigError, match=">= 1"):
            FaultEvent(kind=FaultKind.STRAGGLER, multiplier=0.5)
        with pytest.raises(FaultConfigError, match="positive"):
            FaultEvent(kind=FaultKind.CRASH, downtime=0.0)
        # Well-formed events are untouched.
        FaultEvent(kind=FaultKind.STRAGGLER, multiplier=3.0)
        FaultEvent(kind=FaultKind.CRASH, downtime=0.5)
        FaultEvent()

    def test_chaos_zero_rate_still_valid(self):
        assert FaultConfig.chaos(0.0, downtime=0.5).is_zero


class TestFaultPlan:
    def test_same_seed_same_events(self):
        cfg = FaultConfig.chaos(0.5)
        a = FaultPlan(cfg, seed=7)
        b = FaultPlan(cfg, seed=7)
        assert a.events(200) == b.events(200)

    def test_query_order_is_irrelevant(self):
        cfg = FaultConfig.chaos(0.5)
        forward = FaultPlan(cfg, seed=3)
        backward = FaultPlan(cfg, seed=3)
        fwd = [forward.event(i) for i in range(50)]
        bwd = [backward.event(i) for i in reversed(range(50))]
        assert fwd == list(reversed(bwd))

    def test_seeds_differ(self):
        cfg = FaultConfig.chaos(0.5)
        assert FaultPlan(cfg, seed=0).events(100) != FaultPlan(cfg, seed=1).events(100)

    def test_counts_track_rates(self):
        n = 4000
        counts = FaultPlan(FaultConfig.chaos(0.4), seed=0).counts(n)
        assert counts["failure"] / n == pytest.approx(0.16, abs=0.03)
        assert counts["straggler"] / n == pytest.approx(0.12, abs=0.03)
        assert counts["oom"] / n == pytest.approx(0.08, abs=0.03)
        assert counts["crash"] / n == pytest.approx(0.04, abs=0.02)
        assert sum(counts.values()) == n

    def test_zero_config_is_all_healthy(self):
        plan = FaultPlan(FaultConfig(), seed=0)
        assert all(e.kind is FaultKind.NONE for e in plan.events(32))

    def test_validation(self):
        with pytest.raises(ValueError, match="seed"):
            FaultPlan(FaultConfig(), seed=-1)
        with pytest.raises(ValueError, match="index"):
            FaultPlan(FaultConfig()).event(-1)


class TestFaultyEngine:
    def _requests(self, lengths=(5, 6, 7)):
        return make_requests(list(lengths), deadlines=[100.0] * len(lengths))

    def test_zero_fault_passthrough_is_bit_identical(self):
        reqs = self._requests()
        plain = ConcatEngine(_batch())
        wrapped = _faulty(FaultConfig())
        a = plain.serve(reqs)
        b = wrapped.serve(reqs, now=1.0)
        assert b.latency == a.latency
        assert [r.request_id for r in b.served] == [r.request_id for r in a.served]
        assert wrapped.serve_calls == 0  # passthrough consumes no plan events

    def test_failure_consumes_latency(self):
        wrapped = _faulty(FaultConfig(failure_rate=1.0))
        baseline = ConcatEngine(_batch()).serve(self._requests())
        with pytest.raises(BatchFailure) as exc:
            wrapped.serve(self._requests())
        assert exc.value.kind == "failure"
        assert exc.value.latency == pytest.approx(baseline.latency)

    def test_straggler_multiplies_latency(self):
        wrapped = _faulty(FaultConfig(straggler_rate=1.0))
        baseline = ConcatEngine(_batch()).serve(self._requests())
        result = wrapped.serve(self._requests())
        assert result.latency >= 2.0 * baseline.latency
        assert wrapped.straggler_events == 1

    def test_oom_only_above_threshold(self):
        cfg = FaultConfig(oom_rate=1.0, oom_threshold=0.5)
        wrapped = _faulty(cfg)
        # 4x20 batch: capacity 80 tokens, threshold 40.
        big = make_requests([18, 18, 18], deadlines=[100.0] * 3)
        with pytest.raises(BatchFailure) as exc:
            wrapped.serve(big)
        assert exc.value.kind == "oom"
        assert exc.value.latency == pytest.approx(wrapped.cost_model.fixed_per_batch)
        # A small batch survives the same draw.
        small = make_requests([5], deadlines=[100.0])
        assert wrapped.serve(small).served

    def test_crash_refuses_until_recovery(self):
        wrapped = _faulty(FaultConfig(crash_rate=1.0, downtime=2.0))
        with pytest.raises(EngineDown) as exc:
            wrapped.serve(self._requests(), now=10.0)
        down_until = exc.value.down_until
        assert down_until > 10.0
        assert exc.value.downtime == pytest.approx(down_until - 10.0)
        # Refused while recovering — and the refusal opens no new outage.
        with pytest.raises(EngineDown) as exc2:
            wrapped.serve(self._requests(), now=down_until - 1e-3)
        assert exc2.value.down_until == down_until
        assert exc2.value.downtime == 0.0


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)

    def test_exhausted_budget_abandons(self):
        policy = RetryPolicy(max_retries=1)
        r = Request(request_id=0, length=5, deadline=100.0)
        cm = GPUCostModel.calibrated()
        retained, lost = policy.triage([r], 0.0, cm, {0: 1})
        assert retained == [r]
        retained, lost = policy.triage([r], 0.0, cm, {0: 2})
        assert lost == [r]

    def test_infeasible_deadline_abandons(self):
        policy = RetryPolicy()
        cm = GPUCostModel.calibrated()
        quickest = cm.batch_time(5, 25)
        tight = Request(request_id=0, length=5, deadline=quickest / 2)
        loose = Request(request_id=1, length=5, deadline=quickest * 10)
        retained, lost = policy.triage([tight, loose], 0.0, cm, {})
        assert retained == [loose]
        assert lost == [tight]

    def test_requeue_failed_updates_queue_ledgers(self):
        life = Lifecycle(retry=RetryPolicy())
        queue = life.queue
        reqs = make_requests([5, 5], deadlines=[100.0, 1e-9])
        queue.extend(reqs)
        retained, lost = life.failed(reqs, GPUCostModel.calibrated(), now=0.0)
        assert retained == [reqs[0]]
        assert queue.abandoned == [reqs[1]]
        assert queue.attempts == {reqs[0].request_id: 1, reqs[1].request_id: 1}
        # The retained request is still waiting; the abandoned one is not.
        assert len(queue) == 1


class TestServeSlot:
    def test_healthy_slot_is_transparent(self):
        engine = ConcatEngine(_batch())
        reqs = make_requests([5, 6], deadlines=[100.0, 100.0])
        outcome = serve_slot(engine, reqs, now=0.0)
        assert outcome.ok
        assert outcome.wasted == 0.0
        assert outcome.failures == 0

    def test_oom_split_retry_converges(self):
        engine = _faulty(FaultConfig(oom_rate=1.0, oom_threshold=0.5))
        reqs = make_requests([15, 15, 15, 15], deadlines=[100.0] * 4)
        outcome = serve_slot(engine, reqs, now=0.0)
        assert outcome.ok
        assert outcome.failures >= 1
        assert outcome.split_retries >= 1
        assert len(outcome.batch) < len(reqs)
        assert outcome.wasted > 0.0

    def test_crash_surfaces_downtime(self):
        engine = _faulty(FaultConfig(crash_rate=1.0, downtime=1.0))
        reqs = make_requests([5], deadlines=[100.0])
        outcome = serve_slot(engine, reqs, now=3.0)
        assert not outcome.ok
        assert outcome.down_until is not None and outcome.down_until > 3.0
        assert outcome.downtime > 0.0
        assert outcome.failed == list(reqs)


class TestConservationUnderChaos:
    """Every loop must land every arrived request in one terminal bucket."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rate", [0.1, 0.3])
    def test_simulator(self, seed, rate):
        plan = FaultPlan(FaultConfig.chaos(rate, downtime=0.2), seed=seed)
        sim = ServingSimulator(
            DASScheduler(_batch()),
            FaultyEngine(ConcatEngine(_batch()), plan),
        )
        m = sim.run(_workload(seed=seed)).metrics
        assert m.conservation_ok

    def test_simulator_under_certain_failure(self):
        """failure_rate=1: every batch fails, everything is abandoned or
        expires — and the books still balance."""
        plan = FaultPlan(FaultConfig(failure_rate=1.0), seed=0)
        sim = ServingSimulator(
            FCFSScheduler(_batch()),
            FaultyEngine(ConcatEngine(_batch()), plan),
        )
        m = sim.run(_workload()).metrics
        assert m.num_served == 0
        assert m.failed_batches > 0
        assert m.retries > 0
        assert m.num_abandoned > 0
        assert m.conservation_ok

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cluster(self, seed):
        cfg = FaultConfig.chaos(0.3, downtime=0.2)
        engines = [
            FaultyEngine(ConcatEngine(_batch()), FaultPlan(cfg, seed=100 + g))
            for g in range(3)
        ]
        sim = ClusterSimulator(FCFSScheduler(_batch()), engines)
        m = sim.run(_workload(rate=400.0, seed=seed)).metrics
        assert m.conservation_ok
        assert m.num_served > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_continuous(self, seed):
        sim = ContinuousBatchingSimulator(
            _batch(),
            fault_plan=FaultPlan(FaultConfig.chaos(0.3, downtime=0.2), seed=seed),
            seed=seed,
        )
        m = sim.run(_workload(seed=seed))
        assert m.conservation_ok
        assert m.failed_batches > 0  # hundreds of iterations at rate 0.3

    def test_identical_seeds_identical_metrics(self):
        def run():
            plan = FaultPlan(FaultConfig.chaos(0.25), seed=5)
            sim = ServingSimulator(
                DASScheduler(_batch()),
                FaultyEngine(ConcatEngine(_batch()), plan),
            )
            summary = sim.run(_workload(seed=5)).metrics.summary()
            # Scheduler overhead is wall-clock (Fig. 16's quantity) and
            # legitimately varies run to run; everything else must not.
            summary.pop("sched_overhead")
            return summary

        assert run() == run()


class TestFailover:
    def test_crashed_engine_rejoins_and_cluster_survives(self):
        crashy = FaultConfig(crash_rate=0.3, downtime=0.3)
        engines = [
            FaultyEngine(ConcatEngine(_batch()), FaultPlan(crashy, seed=g))
            for g in range(2)
        ]
        m = ClusterSimulator(FCFSScheduler(_batch()), engines).run(
            _workload(rate=300.0)
        ).metrics
        assert m.num_served > 0
        assert m.downtime > 0.0
        assert m.conservation_ok

    def test_survivor_picks_up_crashed_engines_work(self):
        wl = _workload(rate=300.0)
        crashy = FaultConfig(crash_rate=0.5, downtime=1.0)

        def faulty():
            return FaultyEngine(ConcatEngine(_batch()), FaultPlan(crashy, seed=9))

        solo = ClusterSimulator(FCFSScheduler(_batch()), [faulty()]).run(wl).metrics
        pair = ClusterSimulator(
            FCFSScheduler(_batch()), [faulty(), ConcatEngine(_batch())]
        ).run(wl).metrics
        assert pair.num_served > solo.num_served


class TestNoFaultEquivalence:
    def test_wrapped_simulator_matches_plain(self):
        wl = _workload()
        plain = ServingSimulator(
            DASScheduler(_batch()), ConcatEngine(_batch())
        ).run(wl).metrics
        wrapped = ServingSimulator(
            DASScheduler(_batch()),
            FaultyEngine(ConcatEngine(_batch()), FaultPlan(FaultConfig())),
        ).run(wl).metrics
        a, b = wrapped.summary(), plain.summary()
        a.pop("sched_overhead"), b.pop("sched_overhead")  # wall-clock
        assert a == b
        assert wrapped.finish_times == plain.finish_times

    def test_cluster_of_one_wrapped_matches_plain_simulator(self):
        wl = _workload()
        single = ServingSimulator(
            FCFSScheduler(_batch()), ConcatEngine(_batch())
        ).run(wl).metrics
        cluster = ClusterSimulator(
            FCFSScheduler(_batch()),
            [FaultyEngine(ConcatEngine(_batch()), FaultPlan(FaultConfig()))],
        ).run(wl).metrics
        assert cluster.num_served == single.num_served
        assert cluster.total_utility == pytest.approx(single.total_utility)
        assert cluster.finish_times == single.finish_times

    def test_continuous_without_plan_has_no_fault_metrics(self):
        m = ContinuousBatchingSimulator(_batch()).run(_workload())
        assert m.failed_batches == 0
        assert m.retries == 0
        assert m.downtime == 0.0
        assert m.conservation_ok


class TestBreakerFaultComposition:
    """The circuit breaker (PR 4) composes with the fault plane (PR 2):
    typed fault outcomes drive the breaker, the breaker gates dispatch,
    and the conservation ledger stays exact throughout."""

    def _controller(self, threshold=2, recovery=0.3):
        from repro.overload import (
            BreakerConfig,
            OverloadConfig,
            OverloadController,
        )

        return OverloadController(
            OverloadConfig(
                breaker=BreakerConfig(
                    failure_threshold=threshold, recovery_time=recovery
                )
            )
        )

    def test_certain_failure_trips_breaker_without_livelock(self):
        """failure_rate=1 with a breaker: the run must still terminate,
        with the breaker open and the books balanced."""
        ov = self._controller()
        plan = FaultPlan(FaultConfig(failure_rate=1.0), seed=0)
        sim = ServingSimulator(
            FCFSScheduler(_batch()),
            FaultyEngine(ConcatEngine(_batch()), plan),
            overload=ov,
        )
        m = sim.run(_workload()).metrics
        assert m.num_served == 0
        assert m.conservation_ok
        trips = [
            t for t in ov.transition_log() if t[0] == "breaker" and t[4] == "open"
        ]
        assert trips, "certain failure must trip the breaker"
        # Quarantine means far fewer wasted batches than breaker-less
        # certain failure (every probe re-opens immediately).
        bare = ServingSimulator(
            FCFSScheduler(_batch()),
            FaultyEngine(ConcatEngine(_batch()), FaultPlan(FaultConfig(failure_rate=1.0), seed=0)),
        ).run(_workload()).metrics
        assert m.failed_batches < bare.failed_batches

    def test_cluster_breaker_quarantines_sick_engine(self):
        """One healthy + one crash-prone engine: per-engine breakers
        trip only the sick engine's, and the cluster keeps serving."""
        ov = self._controller(threshold=1, recovery=0.5)
        crashy = FaultConfig(crash_rate=0.8, downtime=0.3)
        engines = [
            ConcatEngine(_batch()),
            FaultyEngine(ConcatEngine(_batch()), FaultPlan(crashy, seed=4)),
        ]
        sim = ClusterSimulator(FCFSScheduler(_batch()), engines, overload=ov)
        m = sim.run(_workload(rate=300.0)).metrics
        assert m.conservation_ok
        assert m.num_served > 0
        tripped = {t[2] for t in ov.transition_log() if t[0] == "breaker"}
        assert tripped == {1}, "only the crash-prone engine may trip"

    def test_continuous_breaker_composes_with_fault_plan(self):
        ov = self._controller(threshold=1, recovery=0.2)
        sim = ContinuousBatchingSimulator(
            _batch(),
            fault_plan=FaultPlan(
                FaultConfig(failure_rate=0.5, crash_rate=0.2, downtime=0.2),
                seed=3,
            ),
            seed=3,
            overload=ov,
        )
        m = sim.run(_workload(seed=3))
        assert m.conservation_ok
        assert any(t[0] == "breaker" for t in ov.transition_log())

    def test_breaker_preserves_fault_replay_determinism(self):
        def run():
            ov = self._controller()
            plan = FaultPlan(FaultConfig.chaos(0.4, downtime=0.2), seed=8)
            sim = ServingSimulator(
                DASScheduler(_batch()),
                FaultyEngine(ConcatEngine(_batch()), plan),
                overload=ov,
            )
            summary = sim.run(_workload(seed=8)).metrics.summary()
            summary.pop("sched_overhead")  # wall-clock (Fig. 16)
            return summary, ov.transition_log()

        assert run() == run()


class _OOMUntil:
    """Fake engine: raises OOM while the batch is larger than ``fits``.

    Records every attempted batch size so tests can pin the exact
    halving ladder serve_slot walks.
    """

    def __init__(self, inner, fits):
        self.inner = inner
        self.fits = fits
        self.sizes: list[int] = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def serve(self, requests, now=0.0):
        self.sizes.append(len(requests))
        if len(requests) > self.fits:
            raise BatchFailure("oom", MIN_SLOT, requests)
        return self.inner.serve(requests, now=now)


class TestSplitRetryLadder:
    """Ceil-halving regression: odd batches keep their larger half."""

    def _ladder(self, n, fits=1):
        engine = _OOMUntil(ConcatEngine(_batch(rows=8)), fits)
        reqs = make_requests([3] * n, deadlines=[100.0] * n)
        outcome = serve_slot(engine, reqs, now=0.0)
        assert outcome.ok
        return engine.sizes, outcome

    def test_odd_batch_keeps_larger_half(self):
        sizes, outcome = self._ladder(5)
        assert sizes == [5, 3, 2, 1]
        assert len(outcome.batch) == 1

    def test_three_retries_two_not_one(self):
        # Floor halving turned 3 into 1, skipping the feasible size 2.
        sizes, _ = self._ladder(3, fits=2)
        assert sizes == [3, 2]

    def test_even_batch_ladder_unchanged(self):
        sizes, _ = self._ladder(8)
        assert sizes == [8, 4, 2, 1]

    def test_ladder_terminates_at_singleton(self):
        # fits=0 can never succeed by shrinking; the singleton attempt
        # must come back as a terminal failure, not an infinite loop.
        engine = _OOMUntil(ConcatEngine(_batch(rows=8)), 0)
        reqs = make_requests([3] * 4, deadlines=[100.0] * 4)
        outcome = serve_slot(engine, reqs, now=0.0)
        assert not outcome.ok
        assert engine.sizes == [4, 2, 1]
        assert len(outcome.failed) == 1

    def test_split_retries_count_resurvived_requests(self):
        sizes, outcome = self._ladder(5)
        # Each re-serve counts the requests it retried: 3 + 2 + 1.
        assert outcome.split_retries == 6


class TestTriageBoundaries:
    """RetryPolicy.triage at its decision boundaries."""

    def test_zero_retry_budget_abandons_after_first_attempt(self):
        policy = RetryPolicy(max_retries=0)
        cm = GPUCostModel.calibrated()
        r = Request(request_id=0, length=5, deadline=100.0)
        # No recorded attempt yet: still allowed to queue once.
        retained, lost = policy.triage([r], 0.0, cm, {})
        assert retained == [r]
        # One failed attempt recorded: budget exhausted.
        retained, lost = policy.triage([r], 0.0, cm, {0: 1})
        assert lost == [r]

    def test_exactly_feasible_solo_batch_is_retained(self):
        """slack == quickest is kept: the abandon test is strictly <."""
        policy = RetryPolicy()
        cm = GPUCostModel.calibrated()
        quickest = cm.batch_time(5, 25)
        exact = Request(request_id=0, length=5, deadline=quickest)
        retained, lost = policy.triage([exact], 0.0, cm, {})
        assert retained == [exact]
        # An epsilon less slack flips it to abandoned.
        tight = Request(
            request_id=1, length=5, deadline=quickest * (1 - 1e-9)
        )
        retained, lost = policy.triage([tight], 0.0, cm, {})
        assert lost == [tight]

    def test_stale_attempt_entries_are_harmless(self):
        """Attempts for ids no longer queued must not affect triage."""
        policy = RetryPolicy(max_retries=1)
        cm = GPUCostModel.calibrated()
        r = Request(request_id=7, length=5, deadline=100.0)
        attempts = {1: 99, 2: 5, 7: 1}  # 1 and 2 left the queue long ago
        retained, lost = policy.triage([r], 0.0, cm, attempts)
        assert retained == [r]
        assert lost == []

    def test_requeue_failed_with_stale_attempts_map(self):
        life = Lifecycle(retry=RetryPolicy())
        queue = life.queue
        reqs = make_requests([5], deadlines=[100.0])
        queue.extend(reqs)
        queue.attempts[12345] = 99  # debris from a request served long ago
        retained, lost = life.failed(reqs, GPUCostModel.calibrated(), now=0.0)
        assert retained == list(reqs)
        assert queue.attempts[12345] == 99  # untouched
