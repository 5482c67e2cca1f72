"""Tests for the autoscaling cluster simulator."""

import pytest

from repro.config import BatchConfig, SchedulerConfig
from repro.engine.concat import ConcatEngine
from repro.faults import FaultConfig, FaultPlan, FaultyEngine
from repro.scheduling.baselines import FCFSScheduler
from repro.scheduling.das import DASScheduler
from repro.serving.autoscale import AutoscalingSimulator
from repro.serving.cluster import ClusterSimulator
from repro.workload.burst import BurstyWorkload
from repro.workload.deadlines import DeadlineModel
from repro.workload.generator import LengthDistribution, WorkloadGenerator
from tests import test_cluster_admission


BATCH = BatchConfig(num_rows=8, row_length=50)


def _sim(**kw):
    defaults = dict(
        min_engines=1,
        max_engines=6,
        high_watermark=800.0,
        low_watermark=100.0,
        startup_delay=0.2,
    )
    defaults.update(kw)
    return AutoscalingSimulator(
        DASScheduler(BATCH, SchedulerConfig()),
        lambda: ConcatEngine(BATCH),
        **defaults,
    )


def _workload(rate, seed=0, horizon=6.0):
    return WorkloadGenerator(
        rate=rate,
        lengths=LengthDistribution(family="normal", mean=15, spread=8, low=3, high=50),
        deadlines=DeadlineModel(base_slack=3.0, jitter=1.0),
        horizon=horizon,
        seed=seed,
    )


class TestAutoscaling:
    def test_scales_up_under_load(self):
        sim = _sim()
        sim.run(_workload(rate=800.0))
        assert any(ev.action == "up" for ev in sim.events)
        assert sim.peak_engines > 1

    def test_never_exceeds_max(self):
        sim = _sim(max_engines=3)
        sim.run(_workload(rate=2000.0))
        assert sim.peak_engines <= 3

    def test_quiet_load_stays_at_min(self):
        sim = _sim()
        sim.run(_workload(rate=10.0))
        assert sim.peak_engines == 1
        assert not sim.events

    def test_scales_down_after_burst(self):
        wl = BurstyWorkload(
            rate=400.0,
            burst_factor=8.0,
            mean_state_duration=1.0,
            lengths=LengthDistribution(family="normal", mean=15, spread=8, low=3, high=50),
            deadlines=DeadlineModel(base_slack=3.0, jitter=1.0),
            horizon=8.0,
            seed=3,
        )
        sim = _sim(low_watermark=300.0)
        sim.run(wl)
        actions = [ev.action for ev in sim.events]
        assert "up" in actions
        assert "down" in actions

    def test_beats_fixed_min_cluster_under_load(self):
        wl = _workload(rate=1000.0)
        fixed = ClusterSimulator(
            DASScheduler(BATCH, SchedulerConfig()), [ConcatEngine(BATCH)]
        ).run(wl).metrics
        auto_sim = _sim(max_engines=6)
        auto = auto_sim.run(wl)
        assert auto.num_served > fixed.num_served

    def test_conservation(self):
        wl = _workload(rate=600.0)
        n = len(wl.generate())
        m = _sim().run(wl)
        assert m.num_served + m.num_expired == n

    def test_faulty_engines_keep_the_ledger(self):
        """Engine faults reach the ledger, not the caller: the loop
        dispatches through serve_slot like the other loops (a bare
        engine.serve used to let the first BatchFailure escape run())."""
        cfg = FaultConfig(
            failure_rate=0.2, oom_rate=0.2, oom_threshold=0.5,
            crash_rate=0.02, downtime=0.3,
        )
        seeds = iter(range(100))

        def factory():
            return FaultyEngine(ConcatEngine(BATCH), FaultPlan(cfg, seed=next(seeds)))

        sim = AutoscalingSimulator(
            DASScheduler(BATCH, SchedulerConfig()),
            factory,
            min_engines=1,
            max_engines=4,
            high_watermark=800.0,
            low_watermark=100.0,
            startup_delay=0.2,
        )
        wl = _workload(rate=600.0)
        m = sim.run(wl)
        m.assert_conservation()
        assert m.arrived == len(wl.generate())
        assert m.failed_batches > 0 and m.retries > 0
        assert m.downtime > 0  # at least one engine crashed and rejoined
        assert m.num_served > 0 and sim.peak_engines > 1

    def test_engine_rearms_after_empty_selection(self):
        """The cluster's empty-selection scenario on a fixed 2-engine fleet
        (watermarks that never fire): the engine that selected nothing
        must wait for the other's finish, not leave the fleet for good."""
        cluster_tests = test_cluster_admission.TestClusterEngineRearming()
        batch, reqs = cluster_tests._scenario()
        sim = AutoscalingSimulator(
            test_cluster_admission._FlakySelect(FCFSScheduler(batch), empty_on={1}),
            lambda: ConcatEngine(batch),
            min_engines=2,
            max_engines=2,
            high_watermark=1e9,
            low_watermark=1e-9,
        )
        m = sim.run(reqs, horizon=100.0)
        assert m.num_served == 3
        assert not sim.events

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            _sim(min_engines=0)
        with pytest.raises(ValueError):
            _sim(min_engines=5, max_engines=2)
        with pytest.raises(ValueError):
            _sim(high_watermark=100.0, low_watermark=200.0)
        with pytest.raises(ValueError):
            _sim(startup_delay=-1.0)
