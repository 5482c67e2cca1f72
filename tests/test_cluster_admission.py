"""Tests for the cluster simulator and admission control."""

import pytest

from repro.config import BatchConfig
from repro.durability import ledger_digest
from repro.engine.concat import ConcatEngine
from repro.engine.cost_model import GPUCostModel
from repro.scheduling.base import Scheduler, SchedulingDecision
from repro.scheduling.baselines import FCFSScheduler
from repro.scheduling.das import DASScheduler
from repro.serving.admission import AdmissionController
from repro.serving.cluster import ClusterSimulator
from repro.serving.simulator import ServingSimulator
from repro.types import Request, make_requests
from repro.workload.deadlines import DeadlineModel
from repro.workload.generator import LengthDistribution, WorkloadGenerator
from tests import test_lifecycle_golden as golden


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


class TestClusterSimulator:
    def test_single_engine_matches_plain_simulator(self):
        wl = _workload()
        single = ServingSimulator(FCFSScheduler(_batch()), ConcatEngine(_batch()))
        cluster = ClusterSimulator(FCFSScheduler(_batch()), [ConcatEngine(_batch())])
        m1 = single.run(wl).metrics
        m2 = cluster.run(wl).metrics
        assert m1.num_served == m2.num_served
        assert m1.total_utility == pytest.approx(m2.total_utility)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_single_engine_books_the_simulator_ledger_under_crashes(self, seed):
        """One engine means one ledger: a lone crashing engine's casualties
        are triaged the same way whichever simulator drives it."""
        requests = golden._workload(seed)
        single = ServingSimulator(
            DASScheduler(golden.BATCH), golden._engine("crashes", seed)
        ).run(requests, horizon=golden.HORIZON).metrics
        cluster = ClusterSimulator(
            DASScheduler(golden.BATCH), [golden._engine("crashes", seed)]
        ).run(requests, horizon=golden.HORIZON).metrics
        assert single.num_abandoned > 0 and single.downtime > 0
        assert ledger_digest(cluster) == ledger_digest(single)

    def test_more_engines_serve_more_under_overload(self):
        wl = _workload(rate=600.0, horizon=4.0)
        served = []
        for g in (1, 2, 4):
            sim = ClusterSimulator(
                FCFSScheduler(_batch()),
                [ConcatEngine(_batch()) for _ in range(g)],
            )
            served.append(sim.run(wl).metrics.num_served)
        assert served[1] > served[0]
        assert served[2] > served[1]

    def test_scaling_sublinear_near_capacity(self):
        """Once the cluster exceeds the offered load, extra engines idle."""
        wl = _workload(rate=50.0, horizon=4.0, base_slack=5.0)
        m4 = ClusterSimulator(
            FCFSScheduler(_batch()), [ConcatEngine(_batch()) for _ in range(4)]
        ).run(wl).metrics
        m8 = ClusterSimulator(
            FCFSScheduler(_batch()), [ConcatEngine(_batch()) for _ in range(8)]
        ).run(wl).metrics
        assert m8.num_served <= m4.num_served * 1.1

    def test_conservation(self):
        wl = _workload(rate=400.0)
        n = len(wl.generate())
        m = ClusterSimulator(
            FCFSScheduler(_batch()), [ConcatEngine(_batch()) for _ in range(3)]
        ).run(wl).metrics
        assert m.num_served + m.num_expired == n

    def test_requires_engines(self):
        with pytest.raises(ValueError, match="at least one"):
            ClusterSimulator(FCFSScheduler(_batch()), [])


class _FlakySelect(Scheduler):
    """Wrap a scheduler, returning an empty decision on scripted calls."""

    def __init__(self, inner: Scheduler, empty_on: set[int]):
        super().__init__(inner.batch)
        self.inner = inner
        self.empty_on = empty_on
        self.calls = 0

    def select(self, waiting, now=0.0):
        call = self.calls
        self.calls += 1
        if call in self.empty_on:
            return SchedulingDecision()
        return self.inner.select(waiting, now)


class TestClusterEngineRearming:
    """An engine that selects nothing must not leave the cluster forever."""

    def _scenario(self):
        batch = BatchConfig(num_rows=1, row_length=20)
        # Measured slot latencies for the deadline arithmetic below.
        f_a = ConcatEngine(batch).serve(
            make_requests([20], deadlines=[100.0])
        ).latency
        f_b = ConcatEngine(batch).serve(
            make_requests([12], deadlines=[100.0])
        ).latency
        # B and C can start at f_a but not at f_a + f_b: a cluster that
        # lost an engine can only serve one of them in time.
        ddl = f_a + 0.5 * f_b
        reqs = [
            Request(request_id=0, length=20, deadline=100.0),
            Request(request_id=1, length=12, deadline=ddl),
            Request(request_id=2, length=12, deadline=ddl),
        ]
        return batch, reqs

    def _run(self, empty_on):
        batch, reqs = self._scenario()
        sched = _FlakySelect(FCFSScheduler(batch), empty_on=empty_on)
        sim = ClusterSimulator(sched, [ConcatEngine(batch), ConcatEngine(batch)])
        return sim.run(reqs, horizon=100.0).metrics

    def test_engine_rearms_after_empty_selection(self):
        # Call 0: engine 0 takes A (fills the single row).  Call 1:
        # engine 1 gets an empty decision with no unservable requests
        # and no arrivals left — the case that used to drop it from the
        # idle heap for good.  It must re-arm at engine 0's finish and
        # pick up C there.
        m = self._run(empty_on={1})
        assert m.num_served == 3
        assert m.conservation_ok

    def test_baseline_without_flake_serves_all(self):
        m = self._run(empty_on=set())
        assert m.num_served == 3


class TestAdmissionController:
    def _ctrl(self, **kw):
        return AdmissionController(batch=_batch(), **kw)

    def test_oversize_rejected(self):
        ctrl = self._ctrl()
        r = Request(request_id=0, length=50, deadline=100.0)
        d = ctrl.check(r, now=0.0)
        assert not d.admitted
        assert "row" in d.reason

    def test_unreachable_deadline_rejected(self):
        ctrl = self._ctrl()
        r = Request(request_id=0, length=10, arrival=0.0, deadline=1e-6)
        d = ctrl.check(r, now=0.0)
        assert not d.admitted
        assert "deadline" in d.reason

    def test_feasible_admitted(self):
        ctrl = self._ctrl()
        r = Request(request_id=0, length=10, deadline=100.0)
        assert ctrl.check(r, now=0.0).admitted

    def test_queue_pressure(self):
        ctrl = self._ctrl(max_queued_tokens=15)
        a = Request(request_id=0, length=10, deadline=100.0)
        b = Request(request_id=1, length=10, deadline=100.0)
        assert ctrl.admit(a, now=0.0)
        assert not ctrl.admit(b, now=0.0)
        assert ctrl.check(b, now=0.0).reason == "queue pressure"
        # Releasing frees budget again.
        ctrl.release([a])
        assert ctrl.admit(b, now=0.0)

    def test_rejected_recorded(self):
        ctrl = self._ctrl()
        bad = Request(request_id=0, length=50, deadline=100.0)
        assert not ctrl.admit(bad, now=0.0)
        assert ctrl.rejected == [bad]

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            self._ctrl(max_queued_tokens=0)

    def test_release_never_negative(self):
        ctrl = self._ctrl(max_queued_tokens=100)
        r = Request(request_id=0, length=10, deadline=100.0)
        ctrl.release([r])
        assert ctrl.queued_tokens == 0

    def test_admission_filters_improve_wasted_work(self):
        """With admission control, the queue never holds unschedulable
        requests — the scheduler's waiting set shrinks."""
        ctrl = self._ctrl()
        reqs = make_requests(
            [10, 30, 10], deadlines=[5.0, 5.0, 1e-9], start_id=0
        )
        admitted = [r for r in reqs if ctrl.admit(r, now=0.0)]
        assert [r.request_id for r in admitted] == [0]


class TestAdmissionWiring:
    """Admission controllers plugged into the serving loops."""

    def _reqs(self):
        # One oversized (rejected at arrival), two feasible.
        return [
            Request(request_id=0, length=50, deadline=100.0),
            Request(request_id=1, length=10, deadline=100.0),
            Request(request_id=2, length=10, deadline=100.0),
        ]

    def test_simulator_folds_rejections_into_metrics(self):
        sim = ServingSimulator(
            FCFSScheduler(_batch()),
            ConcatEngine(_batch()),
            admission=AdmissionController(batch=_batch()),
        )
        m = sim.run(self._reqs(), horizon=10.0).metrics
        assert m.num_rejected == 1
        assert m.rejected[0].request_id == 0
        assert m.num_served == 2
        assert m.conservation_ok

    def test_cluster_folds_rejections_into_metrics(self):
        sim = ClusterSimulator(
            FCFSScheduler(_batch()),
            [ConcatEngine(_batch()) for _ in range(2)],
            admission=AdmissionController(batch=_batch()),
        )
        m = sim.run(self._reqs(), horizon=10.0).metrics
        assert m.num_rejected == 1
        assert m.num_served == 2
        assert m.conservation_ok

    def test_shared_controller_does_not_leak_across_runs(self):
        ctrl = AdmissionController(batch=_batch())
        sim = ServingSimulator(
            FCFSScheduler(_batch()), ConcatEngine(_batch()), admission=ctrl
        )
        m1 = sim.run(self._reqs(), horizon=10.0).metrics
        m2 = sim.run(
            [
                Request(request_id=10, length=50, deadline=100.0),
                Request(request_id=11, length=5, deadline=100.0),
            ],
            horizon=10.0,
        ).metrics
        assert m1.num_rejected == 1
        # Second run sees only its own rejection, not the first run's.
        assert m2.num_rejected == 1
        assert m2.rejected[0].request_id == 10
        assert m2.conservation_ok

    def test_admission_sheds_load_under_pressure(self):
        wl = _workload(rate=600.0, horizon=3.0)
        ctrl = AdmissionController(batch=_batch(), max_queued_tokens=200)
        m = ServingSimulator(
            FCFSScheduler(_batch()), ConcatEngine(_batch()), admission=ctrl
        ).run(wl).metrics
        assert m.num_rejected > 0
        assert m.conservation_ok
