"""The batch-level serving loop: ``G`` engines sharing one wait queue.

Whenever *any* engine goes idle the scheduler packs a batch for it;
engines run concurrently, so the loop keeps a heap of per-engine
busy-until clocks and serves the earliest-idle engine.  It is the only
batch-level loop: :class:`~repro.serving.simulator.ServingSimulator`
runs it over one engine, :class:`~repro.serving.autoscale.AutoscalingSimulator`
over a fleet that :meth:`ClusterSimulator._scale` grows and shrinks.
The slot an engine runs when polled is
:meth:`~repro.serving.lifecycle.Lifecycle.run_slot`'s; the loop keeps
the clock (which engine polls when), health placement, arrivals and
expiry, the ``_scale`` hook and the hedge race (:meth:`_hedge`).

Failover semantics (``docs/faults.md``): a crashed engine leaves the
idle heap until its recovery time, its in-flight requests go through
the bounded deadline-aware requeue policy, queued work drains to the
surviving engines, and the engine rejoins when its downtime ends.  Only
a *lone* engine differs: its failed requests are triaged when the
failed attempt ends (at the rejoin time after a crash) rather than at
its start, and its decision spans carry no ``engine`` attribute.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from repro.cluster_health.hedge import HedgeResolution
from repro.cluster_health.plane import TailTolerancePlane
from repro.durability.plane import DurabilityPlane
from repro.durability.restore import RestoredState
from repro.engine.base import InferenceEngine
from repro.faults.recovery import RetryPolicy, SlotOutcome
from repro.obs.recorder import Tracer
from repro.overload.controller import OverloadController
from repro.scheduling.base import Scheduler
from repro.serving.admission import AdmissionController
from repro.serving.common import MIN_SLOT, resolve_workload
from repro.serving.lifecycle import Lifecycle
from repro.serving.metrics import ServingMetrics
from repro.tenancy.plane import TenancyPlane
from repro.types import Request
from repro.workload.generator import WorkloadGenerator

__all__ = ["ClusterSimulator", "SimulationResult"]


@dataclass
class SimulationResult:
    metrics: ServingMetrics


class ClusterSimulator:
    """Serve one workload with ``G`` engines sharing a queue."""

    def __init__(
        self,
        scheduler: Scheduler,
        engines: Sequence[InferenceEngine],
        *,
        admission: Optional[AdmissionController] = None,
        retry: Optional[RetryPolicy] = None,
        trace: Optional[Tracer] = None,
        overload: Optional[OverloadController] = None,
        durability: Optional[DurabilityPlane] = None,
        health: Optional[TailTolerancePlane] = None,
        tenancy: Optional[TenancyPlane] = None,
    ):
        if not engines:
            raise ValueError("need at least one engine")
        self.scheduler = scheduler
        self.engines = list(engines)
        self.admission = admission
        self.retry = retry or RetryPolicy()
        self.trace = trace
        # Overload plane (off by default); breakers are per engine
        # index, so a sick replica is quarantined while the rest of the
        # cluster keeps draining the shared queue.
        self.overload = overload
        # Durability plane (off by default; see docs/recovery.md).  The
        # idle heap is part of the snapshot, so a restore resumes with
        # every engine's busy-until clock intact.
        self.durability = durability
        # Tail-tolerance plane (off by default; docs/tail_tolerance.md):
        # gray-failure detection, health-scored placement, drains and
        # hedged dispatch.  Composes with — but is distinct from — the
        # overload plane's circuit breaker: the breaker reacts to typed
        # failures, the health plane also to slowness.
        self.health = health
        # Tenancy plane (off by default; docs/tenancy.md): quota
        # admission, fair share across tenants, per-tenant ledgers.
        self.tenancy = tenancy

    def _scale(
        self, life: Lifecycle, idle: list, active: int, now: float
    ) -> bool:
        """Fleet policy, asked before each selection; True retires the
        polling engine.  *active* counts the engines not retired; a
        scale-up appends to ``self.engines`` and pushes onto *idle*."""
        return False

    @staticmethod
    def _next_event_after(
        idle: list[tuple[float, int, int]], now: float
    ) -> Optional[float]:
        """Earliest strictly-later time any other engine becomes idle."""
        later = [t for (t, _, _) in idle if t > now]
        return min(later) if later else None

    def _hedge(
        self,
        life: Lifecycle,
        idle: list,
        primary_idx: int,
        now: float,
        selected: list,
        outcome: SlotOutcome,
        deadline: float,
        primary_finish: float,
    ) -> Optional[HedgeResolution]:
        """Race a duplicate of ``selected`` against a straggling slot.

        Called once the primary's busy time is known to blow the hedge
        deadline.  Picks a healthy idle engine able to start at
        ``now + deadline``, serves the duplicate on it, and resolves
        first-completion-wins.  Exactly-once discipline: the loser — or
        a failed duplicate — never touches the queue or the terminal
        ledger; only the winner's result flows back into the caller's
        (single) serve path, so conservation and terminal dedupe hold
        exactly.  Returns ``None`` when no eligible target exists (the
        primary simply finishes late).
        """
        hp = life.health
        hedge_start = now + deadline
        entry = hp.hedge_target(idle, primary_idx, hedge_start)
        if entry is None:
            return None
        idle.remove(entry)
        heapq.heapify(idle)
        target_idx = entry[2]
        primary_dispatch = now + outcome.wasted
        # The race's own bookkeeping (hedge counters, cancelled-loser
        # time, health spans) stays here: a duplicate is engine time,
        # never a request transition.
        metrics, tr = life.metrics, life.tr
        metrics.hedges += 1
        if tr.enabled:
            tr.health(
                hedge_start,
                "hedge",
                engine=primary_idx,
                target=target_idx,
                deadline=deadline,
                num_requests=len(selected),
            )
        h_out = life.attempt(
            self.engines[target_idx], selected, hedge_start, engine=target_idx
        )
        h_dispatch = hedge_start + h_out.wasted
        metrics.hedge_wasted += h_out.wasted
        resolve = partial(
            HedgeResolution,
            primary=primary_idx,
            target=target_idx,
            deadline=deadline,
            hedge_start=hedge_start,
        )
        # A failed or losing duplicate: the primary's result stands.
        primary_stands = partial(
            resolve,
            winner_engine=primary_idx,
            winner_dispatch=primary_dispatch,
            winner_latency=primary_finish - primary_dispatch,
            winner_finish=primary_finish,
            loser_engine=target_idx,
        )
        if h_out.result is None:
            # The duplicate itself failed or crashed.  Its requests are
            # NOT requeued or abandoned — the primary's in-flight copy
            # still owns them (exactly-once); only engine time and
            # downtime are booked, and the target re-arms like any
            # failed slot.
            rejoin = h_dispatch if h_out.down_until is None else h_out.down_until
            heapq.heappush(idle, (rejoin, target_idx, target_idx))
            res = primary_stands(kind="failed", loser_busy=h_out.wasted)
        else:
            h_latency = max(h_out.result.latency, MIN_SLOT)
            h_finish = h_dispatch + h_latency
            if h_finish < primary_finish:
                # Duplicate wins: the straggling primary is cancelled
                # the moment the duplicate's result lands; its partial
                # slot time is booked as hedge waste.  (If the primary
                # was still burning failed-attempt waste at that point,
                # its successful attempt never started — zero partial.)
                cancel_at = max(h_finish, primary_dispatch)
                loser_busy = cancel_at - primary_dispatch
                metrics.total_engine_time += loser_busy
                metrics.hedge_wasted += loser_busy
                metrics.hedge_wins += 1
                hp.note_hedged_latency(h_out.wasted + h_latency)
                if tr.enabled:
                    tr.batch(
                        primary_dispatch,
                        loser_busy,
                        engine=primary_idx,
                        kind="cancelled",
                        num_requests=len(selected),
                        hedge_target=target_idx,
                    )
                    tr.health(
                        h_finish,
                        "hedge-win",
                        engine=primary_idx,
                        target=target_idx,
                        saved=primary_finish - h_finish,
                    )
                heapq.heappush(idle, (h_finish, target_idx, target_idx))
                res = resolve(
                    kind="win",
                    winner_engine=target_idx,
                    winner_dispatch=h_dispatch,
                    winner_latency=h_latency,
                    winner_finish=h_finish,
                    loser_engine=primary_idx,
                    loser_busy=loser_busy,
                    result=h_out.result,
                )
            else:
                # Primary wins (ties go to the primary — no re-dispatch
                # churn on equal finishes): the duplicate is cancelled
                # at the primary's finish.
                cancel_at = max(primary_finish, h_dispatch)
                loser_busy = cancel_at - h_dispatch
                metrics.total_engine_time += loser_busy
                metrics.hedge_wasted += loser_busy
                if tr.enabled:
                    tr.batch(
                        h_dispatch,
                        loser_busy,
                        engine=target_idx,
                        kind="cancelled",
                        num_requests=len(selected),
                        hedge_primary=primary_idx,
                    )
                    tr.health(
                        primary_finish,
                        "hedge-lose",
                        engine=primary_idx,
                        target=target_idx,
                    )
                heapq.heappush(idle, (cancel_at, target_idx, target_idx))
                res = primary_stands(kind="lose", loser_busy=loser_busy)
        return res

    def run(
        self,
        workload: WorkloadGenerator | Sequence[Request],
        *,
        horizon: Optional[float] = None,
        resume: Optional[RestoredState] = None,
    ) -> SimulationResult:
        """Simulate serving the workload.  ``resume=`` restarts from a
        :class:`~repro.durability.restore.RestoredState`; the workload
        must be the request sequence the crashed run was given."""
        requests, horizon = resolve_workload(workload, horizon)
        engines = self.engines
        hp = (
            self.health
            if self.health is not None and self.health.enabled
            else None
        )
        life = Lifecycle(
            self.scheduler,
            retry=self.retry,
            admission=self.admission,
            trace=self.trace,
            overload=self.overload,
            durability=self.durability,
            tenancy=self.tenancy,
            health=hp,
            engines=engines,
        )
        # (idle_at, tiebreak, engine_index) priority queue.
        if resume is not None:
            now = resume.now
            idle = [tuple(e) for e in (resume.idle or [])]
        else:
            now = 0.0
            idle = [(0.0, i, i) for i in range(len(engines))]
        heapq.heapify(idle)
        life.begin(
            requests, horizon, lambda: {"now": now, "idle": list(idle)}, resume
        )

        def rearm(at: float, engine_idx: int, late: bool = False) -> None:
            # `late` puts a re-armed engine after engines that genuinely
            # schedule at that time, so its re-poll sees their updates.
            tiebreak = len(engines) + engine_idx if late else engine_idx
            heapq.heappush(idle, (at, tiebreak, engine_idx))

        def wait_for_work(engine_idx: int) -> None:
            """Nothing to do *now*: wake at the next arrival, else at the
            next engine event — another engine may still requeue failed
            work or change the picture — instead of leaving for good."""
            wake = life.next_arrival_at()
            if wake is not None:
                rearm(wake, engine_idx)
                return
            wake = self._next_event_after(idle, now)
            if wake is not None:
                rearm(wake, engine_idx, late=True)

        def race(selected, outcome, deadline, finish) -> Optional[HedgeResolution]:
            """The hedge race of the slot `engine_idx` is running at `now`."""
            return self._hedge(
                life, idle, engine_idx, now, selected, outcome, deadline, finish
            )

        retired = 0
        while idle:
            # Step boundary before the pop: the snapshot's idle heap
            # still holds the engine this step is about to claim.
            life.tick()
            now, tiebreak, engine_idx = heapq.heappop(idle)
            if now >= horizon:
                break
            if hp is not None:
                # Health-scored placement: gather every engine idle at
                # this exact timestamp and let the plane pick the
                # healthiest (deterministic tie-break via its dedicated
                # RNG stream).  Losing candidates stay due at `now`;
                # drained or quarantined engines are re-armed at their
                # re-admission / probe time.
                group = [(now, tiebreak, engine_idx)]
                while idle and idle[0][0] == now:
                    group.append(heapq.heappop(idle))
                chosen, deferred = hp.place(group, now, tracer=life.tr)
                for entry in deferred:
                    heapq.heappush(idle, entry)
                if chosen is None:
                    continue
                now, tiebreak, engine_idx = chosen
            life.admit_arrivals(now)
            life.expire_and_shed(now)
            if self._scale(life, idle, len(engines) - retired, now):
                retired += 1
                continue  # this engine retires instead of serving
            slot = life.run_slot(
                engines[engine_idx],
                now,
                engine=engine_idx,
                lone=len(engines) - retired == 1,
                hedge=race,
            )
            if slot.next_at is None:
                wait_for_work(engine_idx)
            elif slot.next_at < math.inf:
                rearm(slot.next_at, engine_idx)

        return SimulationResult(metrics=life.finish())
