"""Differential equivalence harness: fast serving core ≡ reference core.

The ISSUE 8 headline guarantee.  The fast path (indexed
``RequestQueue``, incremental ``DASScheduler.select``, memoized
``GPUCostModel``) must be **bit-identical** to the pre-ISSUE-8
implementations — kept verbatim in ``tests/oracles/`` as
``_ReferenceRequestQueue`` and ``das_scheduler(reference=True)`` — on
every observable output.  The
proof obligation is discharged end to end: seeded randomized workloads
through all three serving loops × {DAS, Slotted DAS, FCFS} × seeds,
with and without faults + overload + durability, comparing
``ledger_digest`` and ``trace_digest`` (the same order-sensitive
digests the durability plane uses for its crash-consistency claim).
"""

from contextlib import contextmanager

import pytest

from repro.config import BatchConfig, SchedulerConfig
from repro.durability import (
    DurabilityConfig,
    DurabilityPlane,
    digest_diff,
    ledger_digest,
    trace_digest,
)
from repro.engine.concat import ConcatEngine
from repro.faults import FaultConfig, FaultPlan, FaultyEngine
from repro.obs.recorder import Tracer
from repro.overload import OverloadConfig, OverloadController, QueueLimits
from repro.overload.controller import DegradationConfig
from repro.scheduling.baselines import FCFSScheduler
from repro.serving import lifecycle as _lifecycle_mod
from repro.serving.autoscale import AutoscalingSimulator
from repro.serving.cluster import ClusterSimulator
from repro.serving.continuous import ContinuousBatchingSimulator
from repro.serving.simulator import ServingSimulator
from repro.workload.deadlines import DeadlineModel
from repro.workload.generator import LengthDistribution, WorkloadGenerator
from tests.oracles.das import das_scheduler, slotted_das_scheduler
from tests.oracles.queue import _ReferenceRequestQueue

BATCH = BatchConfig(num_rows=4, row_length=20)
HORIZON = 10.0
SEEDS = (0, 1, 2)


@contextmanager
def reference_serving_core():
    """Run serving loops on the pre-ISSUE-8 reference queue.

    Schedulers are constructed by callers, so the reference *scheduler*
    is selected separately via ``das_scheduler(..., reference=True)``;
    this context only swaps the queue class.  ``serving/lifecycle.py`` is
    the one module that constructs the run's queue (by module-local
    name), so the swap covers every loop and ``TCBServer``.
    """
    saved = _lifecycle_mod.RequestQueue
    _lifecycle_mod.RequestQueue = _ReferenceRequestQueue
    try:
        yield
    finally:
        _lifecycle_mod.RequestQueue = saved


def _workload(seed, rate=40.0):
    return WorkloadGenerator(
        rate=rate,
        lengths=LengthDistribution(
            family="normal", mean=8, spread=4, low=3, high=20
        ),
        deadlines=DeadlineModel(base_slack=4.0, jitter=0.5),
        horizon=HORIZON,
        seed=seed,
    ).generate()


def _engine(seed, faults):
    engine = ConcatEngine(BATCH)
    if not faults:
        return engine
    return FaultyEngine(
        engine,
        FaultPlan(
            FaultConfig(
                failure_rate=0.15,
                straggler_rate=0.1,
                oom_rate=0.05,
                crash_rate=0.03,
                downtime=0.2,
            ),
            seed=seed,
        ),
    )


def _overload():
    return OverloadController(
        OverloadConfig(limits=QueueLimits(max_requests=64))
    )


def _scheduler(kind, *, reference):
    cfg = SchedulerConfig()
    if kind == "das":
        return das_scheduler(BATCH, cfg, reference=reference)
    if kind == "slotted_das":
        return slotted_das_scheduler(BATCH, cfg, reference=reference)
    if kind == "fcfs":
        # FCFS has no fast/reference split of its own; its runs differ
        # only through the queue swap.
        return FCFSScheduler(BATCH)
    raise ValueError(kind)


def _run_simulator(kind, seed, *, reference, faults, overload, durability):
    tr = Tracer()
    sim = ServingSimulator(
        _scheduler(kind, reference=reference),
        _engine(seed, faults),
        trace=tr,
        overload=_overload() if overload else None,
        durability=DurabilityPlane(DurabilityConfig(checkpoint_every=3))
        if durability
        else None,
    )
    m = sim.run(_workload(seed), horizon=HORIZON).metrics
    return m, tr


def _run_cluster(kind, seed, *, reference, faults, overload, durability):
    tr = Tracer()
    sim = ClusterSimulator(
        _scheduler(kind, reference=reference),
        [_engine(seed * 10 + i, faults) for i in range(3)],
        trace=tr,
        overload=_overload() if overload else None,
        durability=DurabilityPlane(DurabilityConfig(checkpoint_every=3))
        if durability
        else None,
    )
    m = sim.run(_workload(seed), horizon=HORIZON).metrics
    return m, tr


def _run_autoscale(kind, seed, *, reference, faults, overload, durability):
    # No planes on this loop: the queue swap and the scheduler are the
    # whole difference.  Watermarks low enough that the fleet scales.
    sim = AutoscalingSimulator(
        _scheduler(kind, reference=reference),
        lambda: ConcatEngine(BATCH),
        max_engines=3,
        high_watermark=60.0,
        low_watermark=10.0,
    )
    return sim.run(_workload(seed), horizon=HORIZON), None


def _run_continuous(kind, seed, *, reference, faults, overload, durability):
    # The continuous loop has no pluggable scheduler; its two admission
    # policies stand in for the scheduler axis (``fcfs`` exercises the
    # arrival view, ``utility`` the utility-sorted view).
    tr = Tracer()
    sim = ContinuousBatchingSimulator(
        BATCH,
        admission=kind,
        seed=seed,
        fault_plan=FaultPlan(
            FaultConfig(
                failure_rate=0.1, oom_rate=0.05, crash_rate=0.03, downtime=0.2
            ),
            seed=seed,
        )
        if faults
        else None,
        trace=tr,
        overload=_overload() if overload else None,
        durability=DurabilityPlane(DurabilityConfig(checkpoint_every=3))
        if durability
        else None,
    )
    m = sim.run(_workload(seed), horizon=HORIZON)
    return m, tr


def _digests(run, kind, seed, *, reference, faults, overload, durability):
    m, tr = run(
        kind,
        seed,
        reference=reference,
        faults=faults,
        overload=overload,
        durability=durability,
    )
    return ledger_digest(m), trace_digest(tr)


def _assert_equivalent(run, kind, seed, *, faults, overload, durability):
    fast = _digests(
        run,
        kind,
        seed,
        reference=False,
        faults=faults,
        overload=overload,
        durability=durability,
    )
    with reference_serving_core():
        ref = _digests(
            run,
            kind,
            seed,
            reference=True,
            faults=faults,
            overload=overload,
            durability=durability,
        )
    assert fast[0] == ref[0], (
        f"ledger digest diverged: {digest_diff(fast[0], ref[0])}"
    )
    assert fast[1] == ref[1], (
        f"trace digest diverged: {digest_diff(fast[1], ref[1])}"
    )


BATCH_LOOPS = {"simulator": _run_simulator, "cluster": _run_cluster}
PLAIN_LOOPS = {**BATCH_LOOPS, "autoscale": _run_autoscale}


class TestBatchLoops:
    """The batch-level loops × all three schedulers × three seeds."""

    @pytest.mark.parametrize("loop", sorted(PLAIN_LOOPS))
    @pytest.mark.parametrize("kind", ["das", "slotted_das", "fcfs"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_plain(self, loop, kind, seed):
        _assert_equivalent(
            PLAIN_LOOPS[loop],
            kind,
            seed,
            faults=False,
            overload=False,
            durability=False,
        )

    @pytest.mark.parametrize("loop", sorted(BATCH_LOOPS))
    @pytest.mark.parametrize("kind", ["das", "slotted_das", "fcfs"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_faults_overload_durability(self, loop, kind, seed):
        _assert_equivalent(
            BATCH_LOOPS[loop],
            kind,
            seed,
            faults=True,
            overload=True,
            durability=True,
        )


class TestContinuousLoop:
    """Iteration-level loop × both admission policies × three seeds."""

    @pytest.mark.parametrize("kind", ["fcfs", "utility"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_plain(self, kind, seed):
        _assert_equivalent(
            _run_continuous,
            kind,
            seed,
            faults=False,
            overload=False,
            durability=False,
        )

    @pytest.mark.parametrize("kind", ["fcfs", "utility"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_faults_overload_durability(self, kind, seed):
        _assert_equivalent(
            _run_continuous,
            kind,
            seed,
            faults=True,
            overload=True,
            durability=True,
        )


class TestEtaQSettings:
    """The η/q knobs steer DAS's two mechanisms; sweep their corners."""

    @pytest.mark.parametrize("eta", [0.1, 0.9])
    @pytest.mark.parametrize("q", [0.1, 0.9])
    def test_eta_q_corners(self, eta, q):
        cfg = SchedulerConfig(eta=eta, q=q)

        def run(_kind, seed, *, reference, faults, overload, durability):
            tr = Tracer()
            sim = ServingSimulator(
                das_scheduler(BATCH, cfg, reference=reference),
                _engine(seed, faults),
                trace=tr,
                overload=_overload() if overload else None,
            )
            m = sim.run(_workload(seed), horizon=HORIZON).metrics
            return m, tr

        _assert_equivalent(
            run, "das", 0, faults=True, overload=True, durability=False
        )


class TestOverloadTransitions:
    """SHED/BROWNOUT hysteresis must fire identically on both cores.

    ``queue_delay`` is the degradation controller's primary signal, so
    the arrival-heap rewrite is exactly the kind of change that could
    perturb level transitions — pin them (satellite task)."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_transition_log_identical(self, seed):
        def transitions(reference):
            ov = OverloadController(
                OverloadConfig(
                    limits=QueueLimits(max_requests=64),
                    degradation=DegradationConfig(),
                )
            )
            sim = ServingSimulator(
                das_scheduler(BATCH, reference=reference),
                ConcatEngine(BATCH),
                overload=ov,
            )
            sim.run(_workload(seed, rate=120.0), horizon=HORIZON)
            return list(ov.transitions)

        fast = transitions(False)
        with reference_serving_core():
            ref = transitions(True)
        assert fast == ref
        if seed == 0:
            # The overload workload must actually overload — otherwise
            # this test pins nothing.
            assert fast, "expected at least one SHED/BROWNOUT transition"
