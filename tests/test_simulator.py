"""Tests for the discrete-event serving simulator and metrics."""

import pytest

from repro.config import BatchConfig, SchedulerConfig
from repro.engine import ConcatEngine, NaiveEngine, SlottedConcatEngine
from repro.engine.cost_model import GPUCostModel
from repro.obs.recorder import Tracer
from repro.obs.spans import EventKind
from repro.scheduling import (
    DASScheduler,
    FCFSScheduler,
    SlottedDASScheduler,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.simulator import ServingSimulator
from repro.types import Request, make_requests
from repro.workload.generator import LengthDistribution, WorkloadGenerator
from repro.workload.deadlines import DeadlineModel


def _batch(rows=4, L=20):
    return BatchConfig(num_rows=rows, row_length=L)


def _workload(rate=100.0, horizon=2.0, seed=0, base_slack=2.0):
    return WorkloadGenerator(
        rate=rate,
        lengths=LengthDistribution(family="normal", mean=8, spread=4, low=3, high=20),
        deadlines=DeadlineModel(base_slack=base_slack, jitter=0.5),
        horizon=horizon,
        seed=seed,
    )


class TestSimulatorBasics:
    def test_conservation_served_plus_expired(self):
        wl = _workload()
        n = len(wl.generate())
        sim = ServingSimulator(FCFSScheduler(_batch()), ConcatEngine(_batch()))
        m = sim.run(wl).metrics
        assert m.num_served + m.num_expired == n
        served_ids = {r.request_id for r in m.served}
        expired_ids = {r.request_id for r in m.expired}
        assert not served_ids & expired_ids

    def test_deterministic_given_seed(self):
        wl = _workload(seed=7)
        m1 = ServingSimulator(DASScheduler(_batch()), ConcatEngine(_batch())).run(wl).metrics
        m2 = ServingSimulator(DASScheduler(_batch()), ConcatEngine(_batch())).run(wl).metrics
        assert m1.total_utility == m2.total_utility
        assert m1.num_served == m2.num_served

    def test_finish_after_arrival(self):
        sim = ServingSimulator(FCFSScheduler(_batch()), ConcatEngine(_batch()))
        m = sim.run(_workload()).metrics
        for rid, (arrival, finish) in m.finish_times.items():
            assert finish > arrival

    def test_served_requests_met_deadline_at_selection(self):
        """No request may be *scheduled* past its deadline (Eq. 12)."""
        tracer = Tracer()
        sim = ServingSimulator(
            FCFSScheduler(_batch()), ConcatEngine(_batch()), trace=tracer
        )
        wl = _workload(rate=300.0, base_slack=0.5)
        m = sim.run(wl).metrics
        executed = 0
        for r in wl.generate():
            for ev in tracer.events[r.request_id]:
                if ev.kind is EventKind.EXECUTED:
                    executed += 1
                    assert r.arrival <= ev.t <= r.deadline
        assert executed == m.num_served > 0

    def test_everything_served_under_light_load(self):
        wl = _workload(rate=5.0, horizon=2.0, base_slack=10.0)
        sim = ServingSimulator(FCFSScheduler(_batch()), ConcatEngine(_batch()))
        m = sim.run(wl).metrics
        assert m.num_expired == 0
        assert m.num_served == len(wl.generate())

    def test_requests_list_input(self):
        reqs = make_requests([5, 5], arrivals=[0.0, 0.1], deadlines=[10.0, 10.0], start_id=0)
        sim = ServingSimulator(FCFSScheduler(_batch()), ConcatEngine(_batch()))
        m = sim.run(reqs, horizon=5.0).metrics
        assert m.num_served == 2

    def test_oversize_requests_dropped_not_livelocked(self):
        reqs = [Request(request_id=0, length=50, arrival=0.0, deadline=100.0)]
        sim = ServingSimulator(FCFSScheduler(_batch(L=20)), ConcatEngine(_batch(L=20)))
        m = sim.run(reqs, horizon=5.0).metrics
        assert m.num_served == 0
        assert m.num_expired == 1

    def test_slotted_pipeline_sets_engine_slot_size(self):
        batch = _batch()
        engine = SlottedConcatEngine(batch)
        sim = ServingSimulator(SlottedDASScheduler(batch, SchedulerConfig()), engine)
        m = sim.run(_workload()).metrics
        assert m.num_served > 0
        # Engine slot size was driven by the scheduler at least once.
        assert engine.slot_size <= batch.row_length


class TestSaturationBehaviour:
    def test_throughput_monotone_then_saturates(self):
        batch = _batch(rows=8, L=20)
        thr = []
        for rate in (20, 500):
            sim = ServingSimulator(DASScheduler(batch), ConcatEngine(batch))
            m = sim.run(_workload(rate=rate, horizon=4.0)).metrics
            thr.append(m.throughput)
        assert thr[1] > thr[0]

    def test_concat_outserves_naive_at_saturation(self):
        """Fig. 11's core claim at miniature scale."""
        batch = _batch(rows=8, L=20)
        wl = _workload(rate=800.0, horizon=4.0)
        m_naive = ServingSimulator(FCFSScheduler(batch), NaiveEngine(batch)).run(wl).metrics
        m_concat = ServingSimulator(FCFSScheduler(batch), ConcatEngine(batch)).run(wl).metrics
        assert m_concat.throughput > m_naive.throughput

    def test_das_scheduler_time_recorded(self):
        sim = ServingSimulator(DASScheduler(_batch()), ConcatEngine(_batch()))
        m = sim.run(_workload(rate=200.0)).metrics
        assert m.total_scheduler_time > 0
        assert m.scheduler_overhead_ratio > 0


class TestServingMetrics:
    def test_empty_metrics(self):
        m = ServingMetrics(horizon=10.0)
        assert m.total_utility == 0.0
        assert m.throughput == 0.0
        assert m.miss_rate == 0.0
        assert m.mean_latency == 0.0
        assert m.latency_percentile(99) == 0.0
        assert m.scheduler_overhead_ratio == 0.0

    def test_utility_and_miss_rate(self):
        m = ServingMetrics(horizon=10.0)
        m.served = make_requests([2, 4], start_id=0)
        m.expired = make_requests([10], start_id=10)
        assert m.total_utility == pytest.approx(0.75)
        assert m.miss_rate == pytest.approx(1 / 3)
        assert m.throughput == pytest.approx(0.2)

    def test_latency_stats(self):
        m = ServingMetrics(horizon=1.0)
        m.finish_times = {0: (0.0, 1.0), 1: (0.0, 3.0)}
        assert m.mean_latency == pytest.approx(2.0)
        assert m.latency_percentile(100) == pytest.approx(3.0)

    def test_padding_ratio(self):
        m = ServingMetrics()
        m.useful_tokens = 75
        m.padded_tokens = 25
        assert m.padding_ratio == pytest.approx(0.25)

    def test_summary_keys(self):
        m = ServingMetrics(horizon=1.0)
        s = m.summary()
        assert {
            "utility",
            "served",
            "expired",
            "throughput",
            "miss_rate",
            "mean_latency",
            "padding_ratio",
            "sched_overhead",
        } <= set(s)
