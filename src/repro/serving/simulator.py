"""Discrete-event serving simulator (the loop of paper Fig. 3).

The clock advances in *engine slots*: whenever the (simulated) GPU is
idle, arrivals up to ``now`` are admitted, expired requests are dropped,
the scheduler packs a batch from ``N_t`` and the engine executes it; the
clock then jumps by the batch's inference latency.  When the queue is
empty, the clock fast-forwards to the next arrival.

The same loop serves every (scheduler × engine) combination in the
paper's evaluation; see the ``benchmarks/`` directory for the sweeps.

Beyond the paper, the loop is fault-tolerant: engines wrapped in
:class:`~repro.faults.engine.FaultyEngine` surface batch failures,
transient OOM and crashes as typed outcomes, which the loop answers
with split-batch retry, bounded deadline-aware requeue, and clock
advancement through crash downtime (see ``docs/faults.md``).  An
optional :class:`~repro.serving.admission.AdmissionController` sheds
hopeless requests at arrival; its rejections are folded into the
metrics so the conservation invariant
``served + expired + rejected + abandoned == arrived`` holds on every
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.durability.plane import DurabilityPlane
from repro.durability.restore import RestoredState
from repro.engine.base import InferenceEngine
from repro.faults.recovery import RetryPolicy, serve_slot
from repro.obs.recorder import Tracer
from repro.overload.controller import OverloadController
from repro.scheduling.base import Scheduler
from repro.serving.admission import AdmissionController
from repro.serving.common import MIN_SLOT, apply_slot_size, resolve_workload
from repro.serving.lifecycle import Lifecycle
from repro.serving.metrics import ServingMetrics
from repro.tenancy.plane import TenancyPlane
from repro.types import Request
from repro.workload.generator import WorkloadGenerator

__all__ = ["ServingSimulator", "SimulationResult"]


@dataclass
class SimulationResult:
    metrics: ServingMetrics


class ServingSimulator:
    """Wire a workload, scheduler and engine into one serving run."""

    def __init__(
        self,
        scheduler: Scheduler,
        engine: InferenceEngine,
        *,
        admission: Optional[AdmissionController] = None,
        retry: Optional[RetryPolicy] = None,
        trace: Optional[Tracer] = None,
        overload: Optional[OverloadController] = None,
        durability: Optional[DurabilityPlane] = None,
        tenancy: Optional[TenancyPlane] = None,
    ):
        self.scheduler = scheduler
        self.engine = engine
        self.admission = admission
        self.retry = retry or RetryPolicy()
        # Span tracing (repro.obs) is off by default: the loop falls
        # back to the no-op recorder, so every emission site costs one
        # `enabled` attribute lookup when disabled.
        self.trace = trace
        # Overload management (bounded queue + shedding, degradation,
        # circuit breaker) is off by default: without a controller the
        # loop takes exactly its pre-overload paths.
        self.overload = overload
        # Durability plane (snapshot/journal, see docs/recovery.md) is
        # off by default: without a plane the loop takes exactly its
        # pre-durability paths, bit-identical to today.
        self.durability = durability
        # Tenancy plane (quota admission, fair share, per-tenant
        # ledgers; see docs/tenancy.md) is off by default: with
        # tenancy=None the loop takes exactly its tenant-blind paths.
        self.tenancy = tenancy

    def run(
        self,
        workload: WorkloadGenerator | Sequence[Request],
        *,
        horizon: Optional[float] = None,
        resume: Optional[RestoredState] = None,
    ) -> SimulationResult:
        """Simulate serving the workload; returns metrics.

        ``resume=`` restarts the loop from a
        :class:`~repro.durability.restore.RestoredState` (the output of
        ``durability.restore()`` after a crash); the workload must be
        the same materialised request sequence the crashed run was
        given.
        """
        requests, horizon = resolve_workload(workload, horizon)
        engine = self.engine
        life = Lifecycle(
            self.scheduler,
            retry=self.retry,
            admission=self.admission,
            trace=self.trace,
            overload=self.overload,
            durability=self.durability,
            tenancy=self.tenancy,
            engines=(engine,),
        )
        now = resume.now if resume is not None else 0.0
        life.begin(requests, horizon, lambda: {"now": now}, resume)

        while now < horizon:
            life.tick()
            life.admit_arrivals(now)
            life.expire_and_shed(now)

            waiting = life.waiting(now)
            if not waiting:
                wake = life.next_arrival_at()
                if wake is None:
                    break  # Nothing left to serve.
                now = wake
                continue

            retry_at = life.breaker_blocks(0, now)
            if retry_at is not None:
                # Breaker open: with a single engine nothing can run
                # before the recovery interval elapses; jump there.
                now = min(retry_at, horizon)
                continue

            decision = life.select(waiting, now)
            apply_slot_size(engine, decision)
            selected = decision.selected()
            if not selected:
                # Scheduler picked nothing (e.g. everything exceeds L):
                # drop the unschedulable requests to avoid livelock.
                if life.drop_unservable(waiting, now):
                    continue
                wake = life.next_arrival_at()
                if wake is None:
                    break
                now = wake
                continue

            selected = life.dispatch(selected, now)
            outcome = serve_slot(engine, selected, now)
            life.attempted(outcome, len(selected), now)
            now += outcome.wasted

            if outcome.down_until is not None:
                # Engine crashed: with a single engine nothing can be
                # served before it recovers, so requeue feasibility is
                # judged at the rejoin time.
                life.crashed(outcome.downtime, now)
                life.failed(
                    outcome.failed,
                    engine.cost_model,
                    now,
                    retry_from=outcome.down_until,
                )
                now = max(now, outcome.down_until)
                continue
            if outcome.result is None:
                # Terminal batch failure: the wasted time has already
                # advanced the clock; triage the casualties.
                life.failed(outcome.failed, engine.cost_model, now)
                continue

            batch_result = outcome.result
            latency = max(batch_result.latency, MIN_SLOT)
            finish = life.serve_batch(
                batch_result,
                selected,
                now,
                latency,
                engine,
                slot_size=decision.slot_size,
                failures=outcome.failures,
                split_retries=outcome.split_retries,
                wasted=outcome.wasted,
            )
            now = finish

        # Anything still waiting at the horizon (or arriving after the
        # last slot) counts as failed.
        return SimulationResult(metrics=life.finish())
