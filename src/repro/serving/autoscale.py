"""Reactive autoscaling for TCB engine clusters.

Cloud deployments do not run a fixed number of engines; they scale on
queue pressure.  :class:`AutoscalingSimulator` extends the shared-queue
cluster loop with a watermark policy evaluated whenever an engine goes
idle:

- **scale up** — if waiting tokens per active engine exceed
  ``high_watermark`` and the fleet is below ``max_engines``, provision a
  new engine; it becomes usable after ``startup_delay`` seconds (cold
  start),
- **scale down** — if waiting tokens per active engine fall below
  ``low_watermark`` and the fleet is above ``min_engines``, retire one
  idle engine.

The policy is deliberately simple (reactive, hysteresis via the two
watermarks); the point is the *mechanism* and its interaction with
deadline-aware scheduling, which the bench quantifies under bursty
arrivals.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.engine.base import InferenceEngine
from repro.faults.recovery import serve_slot
from repro.scheduling.base import Scheduler
from repro.serving.common import MIN_SLOT, apply_slot_size, resolve_workload
from repro.serving.lifecycle import Lifecycle
from repro.serving.metrics import ServingMetrics
from repro.types import Request
from repro.workload.generator import WorkloadGenerator

__all__ = ["AutoscalingSimulator", "ScalingEvent"]


@dataclass
class ScalingEvent:
    time: float
    action: str  # "up" | "down"
    engines: int  # fleet size after the action


class AutoscalingSimulator:
    """Shared-queue serving with watermark-based engine autoscaling."""

    def __init__(
        self,
        scheduler: Scheduler,
        engine_factory: Callable[[], InferenceEngine],
        *,
        min_engines: int = 1,
        max_engines: int = 8,
        high_watermark: float = 2000.0,
        low_watermark: float = 200.0,
        startup_delay: float = 0.5,
    ):
        if not (1 <= min_engines <= max_engines):
            raise ValueError("need 1 <= min_engines <= max_engines")
        if low_watermark >= high_watermark:
            raise ValueError("low_watermark must be < high_watermark")
        if startup_delay < 0:
            raise ValueError("startup_delay must be >= 0")
        self.scheduler = scheduler
        self.engine_factory = engine_factory
        self.min_engines = min_engines
        self.max_engines = max_engines
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.startup_delay = startup_delay
        self.events: list[ScalingEvent] = []

    def run(
        self,
        workload: WorkloadGenerator | Sequence[Request],
        *,
        horizon: Optional[float] = None,
    ) -> ServingMetrics:
        requests, horizon = resolve_workload(workload, horizon)

        life = Lifecycle(self.scheduler)
        life.begin(requests, horizon)
        self.events = []

        engines: dict[int, InferenceEngine] = {
            i: self.engine_factory() for i in range(self.min_engines)
        }
        retired: set[int] = set()
        next_engine_id = self.min_engines
        # (idle_at, tiebreak, engine_id)
        idle: list[tuple[float, int, int]] = [
            (0.0, i, i) for i in engines
        ]
        heapq.heapify(idle)

        def waiting_tokens(now: float) -> int:
            return sum(r.length for r in life.waiting(now))

        while idle:
            now, _, engine_id = heapq.heappop(idle)
            if engine_id in retired:
                continue
            if now >= horizon:
                break
            life.admit_arrivals(now)
            life.expire_and_shed(now)

            # --- scaling decision ------------------------------------- #
            active = len(engines) - len(retired)
            pressure = waiting_tokens(now) / max(active, 1)
            if pressure > self.high_watermark and active < self.max_engines:
                eid = next_engine_id
                next_engine_id += 1
                engines[eid] = self.engine_factory()
                heapq.heappush(idle, (now + self.startup_delay, eid, eid))
                self.events.append(ScalingEvent(now, "up", active + 1))
            elif (
                pressure < self.low_watermark
                and active > self.min_engines
                and engine_id in engines
            ):
                retired.add(engine_id)
                self.events.append(ScalingEvent(now, "down", active - 1))
                continue  # this engine retires instead of serving

            waiting = life.waiting(now)
            wake = life.next_arrival_at()
            if not waiting:
                if wake is not None:
                    heapq.heappush(idle, (wake, engine_id, engine_id))
                continue

            decision = life.select(waiting, now)
            engine = engines[engine_id]
            apply_slot_size(engine, decision)
            selected = decision.selected()
            if not selected:
                if life.drop_unservable(waiting, now):
                    heapq.heappush(idle, (now, engine_id, engine_id))
                elif wake is not None:
                    heapq.heappush(idle, (wake, engine_id, engine_id))
                continue

            selected = life.dispatch(selected, now, engine=engine_id)
            outcome = serve_slot(engine, selected, now)
            dispatch = now + outcome.wasted
            life.attempted(outcome, len(selected), now, engine=engine_id)
            if outcome.result is None:
                # Failed or crashed, as in ClusterSimulator: triaged at
                # `now` (another engine may retry at once); a crashed
                # engine sits out its downtime before it polls again.
                rejoin = dispatch
                if outcome.down_until is not None:
                    life.crashed(outcome.downtime, dispatch, engine=engine_id)
                    rejoin = outcome.down_until
                life.failed(outcome.failed, engine.cost_model, now)
                heapq.heappush(idle, (rejoin, engine_id, engine_id))
                continue

            result = outcome.result
            finish = life.serve_batch(
                result,
                selected,
                dispatch,
                max(result.latency, MIN_SLOT),
                engine,
                engine=engine_id,
            )
            heapq.heappush(idle, (finish, engine_id, engine_id))

        return life.finish()

    @property
    def peak_engines(self) -> int:
        peak = self.min_engines
        for ev in self.events:
            peak = max(peak, ev.engines)
        return peak
