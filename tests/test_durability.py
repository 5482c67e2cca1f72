"""Tests for the durability plane: snapshot/journal, crash + restore.

The headline claim (ISSUE 7): crash-at-any-step + restore must
reproduce the uninterrupted run's terminal ledger **bit-for-bit** per
seed — for every serving loop — and the conservation invariant
``served + expired + rejected + abandoned (+ shed inside rejected)
== arrived`` holds exactly across the crash boundary.
"""

import collections
import copy
import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster_health import (
    HealthConfig,
    HedgeConfig,
    TailToleranceConfig,
    TailTolerancePlane,
)
from repro.config import BatchConfig
from repro.durability import (
    DurabilityConfig,
    DurabilityPlane,
    Journal,
    TerminalRecord,
    digest_diff,
    ledger_digest,
    restore_state,
    trace_digest,
)
from repro.durability import restore as restore_mod
from repro.durability import snapshot as snapshot_mod
from repro.durability.digest import state_digest
from repro.durability.snapshot import LiveState, Snapshot
from repro.engine.concat import ConcatEngine
from repro.faults import FaultConfig, FaultPlan, FaultyEngine
from repro.faults.plan import SchedulerCrash, SchedulerCrashed
from repro.obs.export import PID_DURABILITY, chrome_trace, validate_chrome_trace
from repro.obs.recorder import Tracer
from repro.overload import (
    BreakerConfig,
    DegradationConfig,
    OverloadConfig,
    OverloadController,
    QueueLimits,
    make_shedder,
)
from repro.scheduling.das import DASScheduler
from repro.scheduling.queue import RequestQueue
from repro.serving.admission import AdmissionController
from repro.serving.cluster import ClusterSimulator
from repro.serving.continuous import ContinuousBatchingSimulator
from repro.serving.metrics import ServingMetrics
from repro.serving.server import TCBServer
from repro.serving.simulator import ServingSimulator
from repro.tenancy import TenancyPlane, TenantClass, TenantRegistry
from repro.tenancy.admission import QuotaExceeded
from repro.types import make_requests
from repro.watermark import Watermark, mark, thaw
from repro.workload.deadlines import DeadlineModel
from repro.workload.generator import LengthDistribution, WorkloadGenerator

BATCH = BatchConfig(num_rows=4, row_length=20)
HORIZON = 12.0


def _workload(seed=0, rate=40.0):
    return WorkloadGenerator(
        rate=rate,
        lengths=LengthDistribution(
            family="normal", mean=8, spread=4, low=3, high=20
        ),
        deadlines=DeadlineModel(base_slack=4.0, jitter=0.5),
        horizon=HORIZON,
        seed=seed,
    ).generate()


def _engine(seed=0):
    return FaultyEngine(
        ConcatEngine(BATCH),
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


# --------------------------------------------------------------------- #
# Loop factories: (reference_run, crashed_run) builders per loop kind.
# Each returns (metrics, tracer) so the digests can be compared.
# --------------------------------------------------------------------- #


def _run_simulator(requests, seed, plane=None, resume=None, overload=False):
    tr = Tracer()
    sim = ServingSimulator(
        DASScheduler(BATCH),
        _engine(seed),
        trace=tr,
        overload=_overload() if overload else None,
        durability=plane,
    )
    m = sim.run(requests, horizon=HORIZON, resume=resume).metrics
    return m, tr


def _run_cluster(requests, seed, plane=None, resume=None, overload=False):
    tr = Tracer()
    sim = ClusterSimulator(
        DASScheduler(BATCH),
        [_engine(seed * 10 + i) for i in range(3)],
        trace=tr,
        overload=_overload() if overload else None,
        durability=plane,
    )
    m = sim.run(requests, horizon=HORIZON, resume=resume).metrics
    return m, tr


def _run_continuous(requests, seed, plane=None, resume=None, overload=False):
    tr = Tracer()
    sim = ContinuousBatchingSimulator(
        BATCH,
        seed=seed,
        fault_plan=FaultPlan(
            FaultConfig(
                failure_rate=0.1, oom_rate=0.05, crash_rate=0.03, downtime=0.2
            ),
            seed=seed,
        ),
        trace=tr,
        overload=_overload() if overload else None,
        durability=plane,
    )
    m = sim.run(requests, horizon=HORIZON, resume=resume)
    return m, tr


LOOPS = {
    "simulator": _run_simulator,
    "cluster": _run_cluster,
    "continuous": _run_continuous,
}


# --------------------------------------------------------------------- #
# The benchmark's composition (bench/sims.py ``sim_planes``), test-sized:
# the cluster loop with all six planes on.
# --------------------------------------------------------------------- #

# The batch tenant is quota-limited so the token bucket really refuses.
REGISTRY = TenantRegistry(
    {
        "premium": "premium",
        "standard": "standard",
        "batch": TenantClass(
            name="batch", weight=0.25, deadline_slack=4.0, rate=60.0,
            burst=120.0,
        ),
    }
)
TENANT_MIX = (("premium", 0.2), ("standard", 0.5), ("batch", 0.3))


def _planes_workload(seed=0, horizon=HORIZON, rate=40.0):
    return WorkloadGenerator(
        rate=rate,
        lengths=LengthDistribution(
            family="normal", mean=8, spread=4, low=3, high=20
        ),
        deadlines=DeadlineModel(base_slack=4.0, jitter=0.5),
        horizon=horizon,
        seed=seed,
        tenant_mix=TENANT_MIX,
        registry=REGISTRY,
    ).generate()


@dataclasses.dataclass
class AllPlanes:
    """One all-planes cluster simulator and the plane objects it holds."""

    sim: ClusterSimulator
    tracer: Tracer
    tenancy: TenancyPlane
    overload: OverloadController
    health: TailTolerancePlane
    metrics: ServingMetrics = None

    def run(self, requests, *, horizon=HORIZON, resume=None):
        self.metrics = self.sim.run(
            requests, horizon=horizon, resume=resume
        ).metrics
        return self


def _all_planes(seed, plane=None):
    """Tracer + tenancy (quota) + overload (token limit, breaker,
    degradation) + tail tolerance (hedging) + faulty engines + *plane*."""
    engines = []
    for i in range(3):
        # Engine 0 is the gray-failing replica the hedges race, engine 1
        # fails often enough to trip its breaker.
        cfg = (
            FaultConfig(
                straggler_rate=0.5, straggler_multiplier=(2.0, 4.0),
                failure_rate=0.05,
            )
            if i == 0
            else FaultConfig(
                failure_rate=0.3 if i == 1 else 0.1, straggler_rate=0.1,
                oom_rate=0.05,
            )
        )
        engines.append(
            FaultyEngine(ConcatEngine(BATCH), FaultPlan(cfg, seed=seed * 10 + i))
        )
    tracer = Tracer()
    tenancy = TenancyPlane(REGISTRY, seed=0)
    overload = OverloadController(
        OverloadConfig(
            limits=QueueLimits(max_tokens=2 * BATCH.capacity_tokens),
            shedding=make_shedder("latest-deadline", seed=0),
            breaker=BreakerConfig(failure_threshold=2, recovery_time=0.5),
            degradation=DegradationConfig(
                shed_min_slack=0.2, brownout_min_slack=0.5
            ),
        )
    )
    health = TailTolerancePlane(
        TailToleranceConfig(
            health=HealthConfig(window=8, min_window=2),
            hedge=HedgeConfig(
                quantile=0.9, multiplier=1.5, min_observations=4,
                only_suspect=False,
            ),
        )
    )
    sim = ClusterSimulator(
        DASScheduler(BATCH),
        engines,
        trace=tracer,
        durability=plane,
        tenancy=tenancy,
        overload=overload,
        health=health,
    )
    return AllPlanes(sim, tracer, tenancy, overload, health)


def _run_all_planes(requests, seed, plane=None, resume=None, overload=False):
    """:data:`LOOPS`-shaped entry point for the all-planes composition."""
    out = _all_planes(seed, plane).run(requests, resume=resume)
    return out.metrics, out.tracer


def _crash_and_restore(run, requests, seed, *, step, phase, k, overload=False):
    """One crash/restore cycle; returns (metrics, tracer) or None if the
    planned crash never fired (run ended first / step had no dispatch)."""
    plane = DurabilityPlane(
        DurabilityConfig(
            checkpoint_every=k, crash=SchedulerCrash(step, phase=phase)
        )
    )
    try:
        run(requests, seed, plane=plane, overload=overload)
        return None
    except SchedulerCrashed as crash:
        assert crash.step == step
        assert crash.phase == phase
    state = plane.restore()
    return run(requests, seed, plane=plane, resume=state, overload=overload)


class TestDifferentialCrashRestore:
    """Crash anywhere, restore, finish: terminal ledger bit-identical."""

    @pytest.mark.parametrize("loop", sorted(LOOPS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 5, 0])
    def test_ledger_and_trace_bit_identical(self, loop, seed, k):
        run = LOOPS[loop]
        requests = _workload(seed)
        ref_m, ref_tr = run(requests, seed)
        ref_led, ref_trd = ledger_digest(ref_m), trace_digest(ref_tr)

        # Probe the step count once, then crash at early/middle/late.
        probe = DurabilityPlane(DurabilityConfig())
        run(requests, seed, plane=probe)
        nsteps = probe.step
        assert nsteps >= 6, "workload too short to crash meaningfully"

        fired = 0
        for step in (1, nsteps // 2, nsteps - 2):
            for phase in ("step", "dispatch"):
                out = _crash_and_restore(
                    run, requests, seed, step=step, phase=phase, k=k
                )
                if out is None:
                    continue  # that step had no dispatch to crash in
                fired += 1
                m, tr = out
                led, trd = ledger_digest(m), trace_digest(tr)
                assert led == ref_led, "; ".join(
                    digest_diff(led, ref_led)[:5]
                )
                assert trd == ref_trd, "; ".join(
                    digest_diff(trd, ref_trd)[:5]
                )
                m.assert_conservation()
                tr.reconcile(m)
        assert fired >= 3, "too few crash points actually fired"

    @pytest.mark.parametrize("loop", sorted(LOOPS))
    def test_with_overload_plane(self, loop):
        """Shedding/denial terminals cross the boundary exactly too."""
        run = LOOPS[loop]
        requests = _workload(3, rate=100.0)
        ref_m, ref_tr = run(requests, 3, overload=True)
        ref_led, ref_trd = ledger_digest(ref_m), trace_digest(ref_tr)
        probe = DurabilityPlane(DurabilityConfig())
        run(requests, 3, plane=probe, overload=True)
        nsteps = probe.step
        out = _crash_and_restore(
            run, requests, 3, step=nsteps // 2, phase="step", k=4,
            overload=True,
        )
        assert out is not None
        m, tr = out
        assert ledger_digest(m) == ref_led
        assert trace_digest(tr) == ref_trd
        m.assert_conservation()
        tr.reconcile(m)

    def test_double_restore_is_repeatable(self):
        """restore() twice from one journal -> two identical states."""
        requests = _workload(0)
        plane = DurabilityPlane(
            DurabilityConfig(checkpoint_every=3, crash=SchedulerCrash(4))
        )
        with pytest.raises(SchedulerCrashed):
            _run_simulator(requests, 0, plane=plane)
        a = restore_state(plane.journal)
        b = restore_state(plane.journal)
        assert a.queue is not b.queue
        assert ledger_digest(a.metrics) == ledger_digest(b.metrics)
        assert a.queue.waiting_ids() == b.queue.waiting_ids()
        assert a.now == b.now and a.step == b.step

    def test_restore_is_independent_of_earlier_restores_and_crashed_objects(
        self,
    ):
        """Vandalise the first restore, keep mutating the crashed run's
        objects, restore again: the second state is what the first was."""
        requests = _planes_workload(1)
        plane = DurabilityPlane(
            DurabilityConfig(checkpoint_every=3, crash=SchedulerCrash(20))
        )
        crashed = _all_planes(1, plane)
        with pytest.raises(SchedulerCrashed):
            crashed.run(requests)
        a = restore_state(plane.journal)
        before = copy.deepcopy(_fingerprint(a))
        assert before["shared"]["overload"]["breakers"], "no breaker state"
        assert before["shared"]["tracer"]["events"]

        # 1. Everything reachable from the first restore.
        extra = [
            dataclasses.replace(r, request_id=10**6 + i)
            for i, r in enumerate(make_requests([5, 6], deadlines=[99.0, 99.0]))
        ]
        a.queue.expire(1e9)
        a.queue.expired.clear()
        a.queue.abandoned.extend(extra)
        a.queue.served_ids.clear()
        a.queue.attempts.clear()
        for ledger in ("served", "expired", "rejected", "abandoned"):
            getattr(a.metrics, ledger).clear()
        a.metrics.finish_times.clear()
        _vandalise(a.shared)
        a.idle.clear()

        # 2. The crashed run's own objects go on changing (appends and
        # rebinding are what live code does to watermarked containers).
        live = plane._capture()
        live.queue.extend(extra)
        live.queue.expire(1e9)
        live.queue.abandon(extra)
        live.metrics.served.extend(extra)
        live.metrics.rejected.extend(extra)
        live.metrics.finish_times[extra[0].request_id] = (0.0, 1.0)
        crashed.tracer.arrive(extra[0], 50.0)
        crashed.tracer.batch(50.0, 1.0, engine=0)
        crashed.tracer.overload(50.0, "shed", n=1)
        for breaker in list(crashed.overload._breakers.values()):
            breaker.record_failure(50.0)
            breaker.record_failure(50.0)
        crashed.overload.begin_run()
        crashed.health.begin_run()
        crashed.tenancy.begin_run()

        b = restore_state(plane.journal)
        assert _fingerprint(b) == before

        # ... and the resumed run still ends where the uninterrupted one does.
        ref = _all_planes(1).run(requests)
        out = _all_planes(1, plane).run(requests, resume=b)
        assert ledger_digest(out.metrics) == ledger_digest(ref.metrics)
        assert trace_digest(out.tracer) == trace_digest(ref.tracer)

    def test_crash_again_after_a_restore(self):
        """Crash, resume, crash again, resume: the second restore reads
        checkpoints taken by a run that itself started from a restore."""

        class CrashesAgain(DurabilityPlane):
            """The planned crash also fires in a resumed run."""

            def begin_run(self, capture, tracer=None, *, resume=None):
                super().begin_run(capture, tracer, resume=resume)
                self._crash_fired = False

        requests = _planes_workload(1)
        ref = _all_planes(1).run(requests)
        first = DurabilityPlane(
            DurabilityConfig(checkpoint_every=3, crash=SchedulerCrash(10))
        )
        with pytest.raises(SchedulerCrashed):
            _all_planes(1, first).run(requests)
        second = CrashesAgain(
            DurabilityConfig(
                checkpoint_every=3, crash=SchedulerCrash(29, phase="dispatch")
            ),
            journal=first.journal,
        )
        with pytest.raises(SchedulerCrashed):
            _all_planes(1, second).run(requests, resume=first.restore())
        third = DurabilityPlane(
            DurabilityConfig(checkpoint_every=3), journal=first.journal
        )
        out = _all_planes(1, third).run(requests, resume=second.restore())
        assert ledger_digest(out.metrics) == ledger_digest(ref.metrics)
        assert trace_digest(out.tracer) == trace_digest(ref.tracer)
        out.metrics.assert_conservation()
        out.tracer.reconcile(out.metrics)
        out.tenancy.book.assert_matches(out.metrics)


def _fingerprint(state):
    """Everything a RestoredState carries, as comparable plain data."""
    return {
        "state": state_digest(
            state.queue, state.metrics, now=state.now,
            next_arrival=state.next_arrival,
        ),
        "scalars": (state.step, state.rejected_before, state.iteration),
        "shared": state.shared,
        "idle": state.idle,
        "running": state.running,
        "rng_state": state.rng_state,
        "engine_cursors": state.engine_cursors,
        "extra": state.extra,
    }


def _vandalise(node):
    """Empty every list and dict reachable from *node*, bottom-up."""
    if isinstance(node, dict):
        for child in node.values():
            _vandalise(child)
        node.clear()
    elif isinstance(node, list):
        for child in node:
            _vandalise(child)
        node.clear()


class TestAllPlanesComposition:
    """The configuration ``sim_planes`` benchmarks, crashed."""

    def test_every_plane_acts_in_this_workload(self):
        requests = _planes_workload(1)
        plane = DurabilityPlane(DurabilityConfig(checkpoint_every=5))
        out = _all_planes(1, plane).run(requests)
        m = out.metrics
        ledgers = out.tenancy.book.ledgers.values()
        assert m.shed > 0 and m.hedges > 0 and m.retries > 0
        assert sum(l.quota_rejected for l in ledgers) > 0
        assert out.overload.transitions, "never left NORMAL"
        assert any(
            b.transitions for b in out.overload._breakers.values()
        ), "no breaker tripped"
        assert any(b.transitions for b in out.health.boards.values())
        assert len(plane.journal.snapshots) > 5

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("k", [1, 5, 0])
    def test_crash_restore_bit_identical(self, seed, k):
        requests = _planes_workload(seed)
        ref = _all_planes(seed).run(requests)
        ref_led = ledger_digest(ref.metrics)
        ref_trd = trace_digest(ref.tracer)
        ref_tenants = ref.tenancy.book.summary()

        probe = DurabilityPlane(DurabilityConfig())
        _all_planes(seed, probe).run(requests)
        nsteps = probe.step
        assert nsteps >= 20

        fired = 0
        for step in (1, nsteps // 2, nsteps - 2):
            for phase in ("step", "dispatch"):
                plane = DurabilityPlane(
                    DurabilityConfig(
                        checkpoint_every=k,
                        crash=SchedulerCrash(step, phase=phase),
                    )
                )
                try:
                    _all_planes(seed, plane).run(requests)
                    continue  # that step had no dispatch to crash in
                except SchedulerCrashed:
                    fired += 1
                out = _all_planes(seed, plane).run(
                    requests, resume=plane.restore()
                )
                m = out.metrics
                led, trd = ledger_digest(m), trace_digest(out.tracer)
                assert led == ref_led, "; ".join(digest_diff(led, ref_led)[:5])
                assert trd == ref_trd, "; ".join(digest_diff(trd, ref_trd)[:5])
                m.assert_conservation()
                out.tracer.reconcile(m)
                out.tenancy.book.assert_matches(m)
                assert out.tenancy.book.summary() == ref_tenants
        assert fired >= 4, "too few crash points actually fired"


ORACLE_LOOPS = dict(LOOPS, all_planes=_run_all_planes)


def _oracle(live):
    """``copy.deepcopy`` of everything a checkpoint is supposed to hold."""
    return copy.deepcopy(dataclasses.replace(live, engines=())), (
        snapshot_mod.capture_engine_cursors(live.engines)
    )


def _assert_matches_oracle(journal, snap, oracle, cursors):
    """Restore *snap* alone (no later record) and compare with the deep
    copy taken when it was captured."""
    alone = Journal()
    alone.snapshots = [snap]
    alone.records = [r for r in journal.records if r.step < snap.step]
    got = restore_state(alone)
    assert got.step == snap.step
    assert state_digest(
        got.queue, got.metrics, now=got.now, next_arrival=got.next_arrival
    ) == state_digest(
        oracle.queue, oracle.metrics, now=oracle.now,
        next_arrival=oracle.next_arrival,
    )
    assert got.rejected_before == oracle.rejected_before
    tracer = Tracer()
    got.apply_shared(tracer=tracer)
    assert trace_digest(tracer) == trace_digest(oracle.tracer)
    assert tracer.durability_events == oracle.tracer.durability_events
    for name in snapshot_mod.ABSOLUTE:
        owner = getattr(oracle, name)
        enabled = owner is not None and getattr(owner, "enabled", True)
        want = thaw(owner.export_state()) if enabled else None
        assert got.shared[name] == want, name
    assert got.idle == oracle.idle
    assert got.running == oracle.running
    assert got.iteration == oracle.iteration
    if oracle.rng is not None:
        assert got.rng_state == oracle.rng.bit_generator.state
    assert got.engine_cursors == cursors


class TestCheckpointIndependence:
    """A checkpoint is references and lengths, yet behaves like a copy."""

    @settings(max_examples=25, deadline=None)
    @given(
        loop=st.sampled_from(sorted(ORACLE_LOOPS)),
        seed=st.integers(0, 3),
        k=st.sampled_from([1, 2, 3, 5]),
        crash=st.integers(2, 40),
    )
    def test_checkpoints_equal_a_deepcopy_oracle(self, loop, seed, k, crash):
        """Snapshot, run on, restore that snapshot: what comes back is
        what a deep copy taken at capture time holds — for every
        checkpoint of the run, however much happened after it."""
        run = ORACLE_LOOPS[loop]
        requests = (
            _planes_workload(seed) if loop == "all_planes" else _workload(seed)
        )
        plane = DurabilityPlane(
            DurabilityConfig(checkpoint_every=k, crash=SchedulerCrash(crash))
        )
        oracles = []
        capture = Snapshot.capture.__func__

        def capture_with_oracle(cls, live, *, seq, step):
            oracles.append(_oracle(live))
            return capture(cls, live, seq=seq, step=step)

        with mock.patch.object(
            Snapshot, "capture", classmethod(capture_with_oracle)
        ):
            try:
                run(requests, seed, plane=plane)
            except SchedulerCrashed:
                pass
        snapshots = plane.journal.snapshots
        assert len(snapshots) == len(oracles) >= 1
        for snap, (oracle, cursors) in zip(snapshots, oracles):
            _assert_matches_oracle(plane.journal, snap, oracle, cursors)

    def test_crash_restore_resume_never_deep_copies(self, monkeypatch):
        """k = 1, all planes: not one copy.deepcopy call on the way."""

        def refuse(*_args, **_kwargs):
            raise AssertionError("copy.deepcopy on the durability path")

        requests = _planes_workload(0)
        ref = _all_planes(0).run(requests)
        monkeypatch.setattr(copy, "deepcopy", refuse)
        plane = DurabilityPlane(
            DurabilityConfig(checkpoint_every=1, crash=SchedulerCrash(25))
        )
        with pytest.raises(SchedulerCrashed):
            _all_planes(0, plane).run(requests)
        out = _all_planes(0, plane).run(requests, resume=plane.restore())
        assert ledger_digest(out.metrics) == ledger_digest(ref.metrics)
        assert trace_digest(out.tracer) == trace_digest(ref.tracer)

    def test_checkpoint_work_does_not_grow_with_the_run(self, monkeypatch):
        """Counted, not timed: the container elements ``export_state``
        copies per checkpoint stay flat when the trace gets 4x longer
        (a copy of the state so far would grow ~4x)."""
        owners = (
            RequestQueue, ServingMetrics, Tracer, AdmissionController,
            OverloadController, TenancyPlane, TailTolerancePlane,
        )
        copied = collections.Counter()

        def elements(node):
            if isinstance(node, Watermark):
                return 1  # a reference and a length, whatever it marks
            if isinstance(node, dict):
                return len(node) + sum(elements(v) for v in node.values())
            if isinstance(node, (list, tuple, set)):
                return len(node) + sum(elements(v) for v in node)
            return 0

        def counting(cls):
            export = cls.export_state

            def export_state(self):
                state = export(self)
                copied[cls.__name__] += elements(state)
                return state

            return export_state

        for cls in owners:
            monkeypatch.setattr(cls, "export_state", counting(cls))

        def per_checkpoint(horizon):
            copied.clear()
            plane = DurabilityPlane(DurabilityConfig(checkpoint_every=5))
            requests = _planes_workload(0, horizon=horizon)
            _all_planes(0, plane).run(requests, horizon=horizon)
            n = len(plane.journal.snapshots)
            return {name: total / n for name, total in copied.items()}, n

        short, n_short = per_checkpoint(16.0)
        long, n_long = per_checkpoint(64.0)
        assert n_long > 3 * n_short
        assert sum(long.values()) < 1.5 * sum(short.values()), (short, long)
        # The owners of the ledgers that grow with the run, one by one:
        # in the total, the planes' bounded windows would hide them.
        for cls in (RequestQueue, ServingMetrics, Tracer):
            name = cls.__name__
            assert 0 < long[name] < 1.5 * short[name], (name, short, long)

    def test_owner_table_drives_capture_and_restore(self, monkeypatch):
        """An owner registered for capture is necessarily restored, and
        one that is not captured cannot be applied."""

        class Widget:
            def __init__(self):
                self.level, self.log = 0, []

            def export_state(self):
                return {"level": self.level, "log": mark(self.log)}

            def apply_state(self, state):
                self.level, self.log = state["level"], state["log"]

        names = snapshot_mod.ABSOLUTE + ("widget",)
        monkeypatch.setattr(snapshot_mod, "ABSOLUTE", names)
        monkeypatch.setattr(restore_mod, "ABSOLUTE", names)
        widget = Widget()
        widget.level, widget.log = 3, ["a", "b"]
        live = LiveState(queue=RequestQueue(), metrics=ServingMetrics())
        live.widget = widget
        journal = Journal()
        journal.add_snapshot(Snapshot.capture(live, seq=0, step=0))
        widget.level = 9
        widget.log.append("c")  # after the checkpoint

        state = restore_state(journal)
        fresh = Widget()
        state.apply_shared(widget=fresh)
        assert (fresh.level, fresh.log) == (3, ["a", "b"])
        assert fresh.log is not widget.log

        with pytest.raises(KeyError):
            state.apply_shared(gadget=Widget())
        # Captured state restore has no slot for is loud, not dropped.
        journal.latest_snapshot.state["stray"] = 1
        with pytest.raises(TypeError, match="stray"):
            restore_state(journal)

    def test_truncating_a_watermarked_ledger_is_detected(self):
        ledger = [1, 2, 3]
        state = {"ledger": mark(ledger)}
        ledger.append(4)
        assert thaw(state) == {"ledger": [1, 2, 3]}
        del ledger[1:]
        with pytest.raises(ValueError, match="truncated"):
            thaw(state)


class TestSnapshotIsTheRecoveryState:
    """The simulators journal nothing: a restore is the latest snapshot,
    and the resumed loop re-executes from its step."""

    @pytest.mark.parametrize("loop", sorted(ORACLE_LOOPS))
    def test_runs_leave_only_snapshots(self, loop):
        run = ORACLE_LOOPS[loop]
        requests = (
            _planes_workload(0) if loop == "all_planes" else _workload(0)
        )
        plane = DurabilityPlane(DurabilityConfig(checkpoint_every=5))
        run(requests, 0, plane=plane)
        assert plane.journal.records == []
        assert len(plane.journal.snapshots) >= 2

        # Between two snapshots, so the restore is behind the crash.
        step = 5 * (plane.step // 10) + 2
        crashed = DurabilityPlane(
            DurabilityConfig(checkpoint_every=5, crash=SchedulerCrash(step))
        )
        with pytest.raises(SchedulerCrashed):
            run(requests, 0, plane=crashed)
        assert crashed.journal.records == []
        state = crashed.restore()
        assert state.step == crashed.journal.latest_snapshot.step == step - 2
        m, _ = run(requests, 0, plane=crashed, resume=state)
        assert crashed.journal.records == []
        m.assert_conservation()


class TestInertByDefault:
    """durability=None and plane-enabled runs are bit-identical."""

    @pytest.mark.parametrize("loop", sorted(LOOPS))
    def test_plane_does_not_perturb_run(self, loop):
        run = LOOPS[loop]
        requests = _workload(1)
        ref_m, ref_tr = run(requests, 1)
        plane = DurabilityPlane(
            DurabilityConfig(checkpoint_every=4, verify_replay=True)
        )
        m, tr = run(requests, 1, plane=plane)
        assert ledger_digest(m) == ledger_digest(ref_m)
        assert trace_digest(tr) == trace_digest(ref_tr)

    def test_all_default_config_takes_pre_durability_paths(self):
        requests = _workload(0)
        sim = ServingSimulator(DASScheduler(BATCH), _engine(0))
        assert sim.durability is None
        m = sim.run(requests, horizon=HORIZON).metrics
        m.assert_conservation()

    def test_resume_requires_plane(self):
        requests = _workload(0)
        plane = DurabilityPlane(
            DurabilityConfig(checkpoint_every=2, crash=SchedulerCrash(3))
        )
        with pytest.raises(SchedulerCrashed):
            _run_simulator(requests, 0, plane=plane)
        state = plane.restore()
        sim = ServingSimulator(DASScheduler(BATCH), _engine(0))
        with pytest.raises(ValueError, match="resume"):
            sim.run(requests, horizon=HORIZON, resume=state)

    @pytest.mark.parametrize("loop", sorted(LOOPS))
    def test_restore_refuses_after_clean_completion(self, loop):
        # A completed run has nothing to resume, so the plane refuses;
        # restore_state still thaws its latest snapshot for inspection.
        run = LOOPS[loop]
        requests = _workload(0)
        plane = DurabilityPlane(DurabilityConfig(checkpoint_every=2))
        run(requests, 0, plane=plane)
        with pytest.raises(ValueError, match="completed cleanly"):
            plane.restore()
        assert restore_state(plane.journal).step == plane.journal.latest_snapshot.step


class TestVerifyReplay:
    def test_self_audit_passes_on_healthy_run(self):
        requests = _workload(2)
        plane = DurabilityPlane(
            DurabilityConfig(checkpoint_every=2, verify_replay=True)
        )
        m, _ = _run_simulator(requests, 2, plane=plane)
        m.assert_conservation()


class TestJournal:
    def _filled(self):
        requests = _workload(0)
        plane = DurabilityPlane(
            DurabilityConfig(checkpoint_every=3, crash=SchedulerCrash(5))
        )
        with pytest.raises(SchedulerCrashed):
            _run_simulator(requests, 0, plane=plane)
        return plane.journal

    def test_audit_exactly_once(self):
        journal = self._filled()
        audit = journal.audit()
        assert audit["duplicate_terminals"] == []
        assert audit["records"] == len(journal)
        assert audit["snapshots"] >= 2  # genesis + at least one periodic

    def test_restore_without_snapshot_raises(self):
        with pytest.raises(ValueError, match="no snapshot"):
            restore_state(Journal())


class TestRecords:
    def test_terminal_kind_validated(self):
        r = make_requests([5], deadlines=[1.0])[0]
        with pytest.raises(ValueError, match="terminal"):
            TerminalRecord(step=0, terminal="vanished", requests=(r,))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            DurabilityConfig(checkpoint_every=-1)
        with pytest.raises(ValueError, match="step"):
            SchedulerCrash(step=-1)
        with pytest.raises(ValueError, match="phase"):
            SchedulerCrash(step=0, phase="nowhere")

    def test_seeded_crash_is_deterministic(self):
        a = SchedulerCrash.seeded(7, max_step=50)
        b = SchedulerCrash.seeded(7, max_step=50)
        assert a == b
        assert 0 <= a.step < 50


class TestChromeTraceLane:
    def test_durability_lane_is_conditional(self):
        requests = _workload(0)
        _, tr = _run_simulator(requests, 0)
        plain = chrome_trace(tr)
        assert PID_DURABILITY not in {e["pid"] for e in plain["traceEvents"]}

        plane = DurabilityPlane(DurabilityConfig(checkpoint_every=3))
        _, tr2 = _run_simulator(requests, 0, plane=plane)
        doc = chrome_trace(tr2)
        validate_chrome_trace(doc)
        lane = [
            e
            for e in doc["traceEvents"]
            if e["pid"] == PID_DURABILITY and e["ph"] == "i"
        ]
        assert "snapshot" in {e["name"] for e in lane}
        assert any(
            e["ph"] == "M" and e["pid"] == PID_DURABILITY
            for e in doc["traceEvents"]
        )

    def test_crash_and_restore_events_exported(self):
        requests = _workload(0)
        plane = DurabilityPlane(
            DurabilityConfig(checkpoint_every=2, crash=SchedulerCrash(4))
        )
        with pytest.raises(SchedulerCrashed):
            _run_simulator(requests, 0, plane=plane)
        plane.restore()
        _, tr = _run_simulator(
            requests, 0, plane=plane, resume=plane.restore()
        )
        doc = chrome_trace(tr)
        validate_chrome_trace(doc)
        kinds = {
            e["name"]
            for e in doc["traceEvents"]
            if e["pid"] == PID_DURABILITY
        }
        assert "restore" in kinds


class TestServerWarmRestart:
    def _server(self, plane):
        return TCBServer(seed=0, durability=plane)

    def test_exactly_once_across_restart(self):
        plane = DurabilityPlane(DurabilityConfig(checkpoint_every=1))
        s1 = self._server(plane)
        ids = [s1.submit([1, 2, 3, 4]) for _ in range(6)]
        served_pre = [r.request_id for r in s1.step()]
        s1.step()  # tick commits the serving step
        wal_ids = [s1.submit([5, 6, 7]) for _ in range(3)]  # acked, WAL-only

        s2 = self._server(plane)
        state = s2.warm_restart()
        recovered = {req.request_id for req in state.recovered}
        assert recovered == set(wal_ids)
        served_post = [r.request_id for r in s2.run_until_drained()]
        # Exactly once: no id served twice, none lost.
        assert not set(served_pre) & set(served_post)
        assert set(served_pre) | set(served_post) == set(ids + wal_ids)
        s2.metrics.assert_conservation()

    def test_warm_restart_of_the_live_server(self):
        """The same server object restarts in place, more than once: its
        queue, ledger and planes are refilled, never shared with the
        checkpoints they came from."""
        plane = DurabilityPlane(DurabilityConfig(checkpoint_every=1))
        server = TCBServer(
            seed=0, durability=plane, overload=_overload(),
            tenancy=TenancyPlane(REGISTRY, seed=0),
        )
        ids = [server.submit([1, 2, 3, 4]) for _ in range(6)]
        served_pre = [r.request_id for r in server.step()]
        server.step()  # tick commits the serving step
        wal_ids = [server.submit([5, 6, 7]) for _ in range(3)]

        state = server.warm_restart()
        assert {req.request_id for req in state.recovered} == set(wal_ids)
        served_mid = [r.request_id for r in server.step()]
        server.step()
        server.warm_restart()  # from the restart checkpoint's successors
        served_post = [r.request_id for r in server.run_until_drained()]
        served = served_pre + served_mid + served_post
        assert sorted(served) == sorted(ids + wal_ids)
        server.metrics.assert_conservation()
        server.tenancy.book.assert_matches(server.metrics)

    def test_outputs_regenerate_identically(self):
        plane = DurabilityPlane(DurabilityConfig(checkpoint_every=1))
        s1 = self._server(plane)
        for _ in range(4):
            s1.submit([1, 2, 3])
        s2 = self._server(plane)
        s2.warm_restart()
        out = {r.request_id: r.output_tokens for r in s2.run_until_drained()}

        ref = TCBServer(seed=0)
        for _ in range(4):
            ref.submit([1, 2, 3])
        ref_out = {
            r.request_id: r.output_tokens for r in ref.run_until_drained()
        }
        assert out == ref_out

    def test_duplicate_suppression_on_committed_enqueues(self):
        """A WAL enqueue that also committed must not be added twice."""
        plane = DurabilityPlane(DurabilityConfig(checkpoint_every=1))
        s1 = self._server(plane)
        rid = s1.submit([1, 2, 3, 4, 5])
        s1.step(), s1.step(), s1.step()  # serve + commit
        s2 = self._server(plane)
        state = s2.warm_restart()
        assert rid not in {req.request_id for req in state.recovered}
        assert s2.pending == 0
        assert rid in {r.request_id for r in s2.metrics.served}

    def test_restart_between_snapshots(self):
        """k = 3: the restart is behind the crash.  Submits acknowledged
        and responses delivered after the latest snapshot come back from
        the journal; nothing is served twice and nothing is lost."""
        plane = DurabilityPlane(DurabilityConfig(checkpoint_every=3))
        s1 = TCBServer(
            seed=0, durability=plane, tenancy=TenancyPlane(REGISTRY, seed=0)
        )
        prompts, delivered = [], {}
        for i in range(5):
            for j in range(3):
                prompts.append([1 + i, 2 + j, 3, 4])
                s1.submit(prompts[-1])
            delivered.update((r.request_id, r.output_tokens) for r in s1.step())
        for j in range(2):
            prompts.append([9, 8, 7 + j])
            s1.submit(prompts[-1])
        snap = plane.journal.latest_snapshot
        assert snap.step == 3 and plane.step == 4
        since = plane.journal.since(snap.step)
        assert any(isinstance(r, TerminalRecord) for r in since)
        assert plane.journal.audit()["duplicate_terminals"] == []

        s2 = TCBServer(
            seed=0, durability=plane, tenancy=TenancyPlane(REGISTRY, seed=0)
        )
        state = s2.warm_restart()
        assert state.step == 3 and state.released
        again = {r.request_id: r.output_tokens for r in s2.run_until_drained()}
        ids = set(range(len(prompts)))
        assert not set(delivered) & set(again)
        assert set(delivered) | set(again) == ids
        served = [r.request_id for r in s2.metrics.served]
        assert sorted(served) == sorted(ids)
        s2.metrics.assert_conservation()
        s2.tenancy.book.assert_matches(s2.metrics)

        ref = TCBServer(seed=0)
        for tokens in prompts:
            ref.submit(tokens)
        ref_out = {r.request_id: r.output_tokens for r in ref.run_until_drained()}
        assert {**delivered, **again} == ref_out

    def test_restart_charges_the_recovered_submits(self):
        """k = 3: every submit since the genesis snapshot comes back from
        the journal.  The admission controller and the tenant's in-flight
        cap count the still-queued ones again, and the next over-cap
        submit is refused as it is without the restart."""
        registry = TenantRegistry(
            {"capped": TenantClass(name="capped", max_in_flight=20)}
        )

        def server(plane):
            return TCBServer(
                seed=0,
                durability=plane,
                admission=AdmissionController(
                    BatchConfig(num_rows=4, row_length=32), max_queued_tokens=1000
                ),
                tenancy=TenancyPlane(registry, seed=0),
            )

        plane = DurabilityPlane(DurabilityConfig(checkpoint_every=3))
        s1, ref = server(plane), server(None)
        for s in (s1, ref):
            for _ in range(4):
                s.submit([1, 2, 3], tenant="capped")
            assert len(s.step()) == 4
            for _ in range(5):
                s.submit([4, 5, 6], tenant="capped")
        assert s1.admission.queued_tokens == 15

        s2 = server(plane)
        s2.warm_restart()
        assert s2.pending == 5
        for s in (s2, ref):
            assert s.admission.queued_tokens == 15
            assert s.tenancy.export_state()["in_flight"] == {"capped": 15}
            with pytest.raises(QuotaExceeded, match="in-flight cap 20 tokens"):
                s.submit([7] * 6, tenant="capped")
            s.submit([7] * 5, tenant="capped")
            s.run_until_drained()
            assert s.admission.queued_tokens == 0
            assert s.tenancy.export_state()["in_flight"] == {"capped": 0}
            s.metrics.assert_conservation()

    def test_restart_without_plane_raises(self):
        with pytest.raises(ValueError, match="durability"):
            TCBServer(seed=0).warm_restart()

    def test_submit_ids_continue_after_restart(self):
        plane = DurabilityPlane(DurabilityConfig(checkpoint_every=1))
        s1 = self._server(plane)
        ids = [s1.submit([1, 2]) for _ in range(3)]
        s2 = self._server(plane)
        s2.warm_restart()
        nxt = s2.submit([3, 4])
        assert nxt not in ids
        assert nxt == max(ids) + 1
