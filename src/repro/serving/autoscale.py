"""Reactive autoscaling for TCB engine clusters.

Cloud deployments do not run a fixed number of engines; they scale on
queue pressure.  :class:`AutoscalingSimulator` is the shared-queue
cluster loop over a fleet that changes size: its watermark policy is
the loop's :meth:`~repro.serving.cluster.ClusterSimulator._scale` hook,
evaluated whenever an engine goes idle:

- **scale up** — if waiting tokens per active engine exceed
  ``high_watermark`` and the fleet is below ``max_engines``, provision a
  new engine; it becomes usable after ``startup_delay`` seconds (cold
  start),
- **scale down** — if waiting tokens per active engine fall below
  ``low_watermark`` and the fleet is above ``min_engines``, retire the
  idle engine.

The policy is deliberately simple (reactive, hysteresis via the two
watermarks); the point is the *mechanism* and its interaction with
deadline-aware scheduling, which the bench quantifies under bursty
arrivals.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.engine.base import InferenceEngine
from repro.faults.recovery import RetryPolicy
from repro.scheduling.base import Scheduler
from repro.serving.cluster import ClusterSimulator
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


class AutoscalingSimulator(ClusterSimulator):
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
        # Not ClusterSimulator.__init__: the fleet is built afresh by
        # every run(), and no plane is attached.
        self.scheduler = scheduler
        self.engines: list[InferenceEngine] = []
        self.admission = self.trace = self.overload = None
        self.durability = self.health = self.tenancy = None
        self.retry = RetryPolicy()
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
        self.engines = [self.engine_factory() for _ in range(self.min_engines)]
        self.events = []
        return super().run(workload, horizon=horizon).metrics

    def _scale(
        self, life: Lifecycle, idle: list, active: int, now: float
    ) -> bool:
        pressure = sum(r.length for r in life.waiting(now)) / active
        if pressure > self.high_watermark and active < self.max_engines:
            eid = len(self.engines)
            self.engines.append(self.engine_factory())
            heapq.heappush(idle, (now + self.startup_delay, eid, eid))
            self.events.append(ScalingEvent(now, "up", active + 1))
        elif pressure < self.low_watermark and active > self.min_engines:
            self.events.append(ScalingEvent(now, "down", active - 1))
            return True
        return False

    @property
    def peak_engines(self) -> int:
        peak = self.min_engines
        for ev in self.events:
            peak = max(peak, ev.engines)
        return peak
