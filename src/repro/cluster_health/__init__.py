"""Tail tolerance for cluster serving: keep p99 flat through gray failures.

Crashes are easy — PR 2's failover and PR 4's circuit breaker already
handle engines that *stop*.  This package handles engines that *limp*:
gray failures where a replica keeps returning correct results slowly
enough to destroy the latency tail.  Three composable mechanisms:

- :mod:`repro.cluster_health.score` — per-engine rolling scoreboards
  that fuse typed fault outcomes with observed-vs-predicted batch
  latencies into a continuous health score with hysteresis
  (HEALTHY → SUSPECT → QUARANTINED → probed back in);
- :mod:`repro.cluster_health.hedge` — quantile hedge deadlines and the
  first-completion-wins resolution vocabulary for duplicated batches;
- :mod:`repro.cluster_health.plane` — the per-run plane the
  :class:`~repro.serving.cluster.ClusterSimulator` consults for
  health-scored placement, drains/rolling restarts, and hedge targets.

Everything is seeded and replay-stable (dedicated RNG stream domain,
TCB011 in ``tests/test_static_invariants.py``), inert by default (bit-identical digests when
disabled), and snapshot/restorable through the durability plane.  See
``docs/tail_tolerance.md``.
"""

from repro.cluster_health.hedge import (
    HedgeConfig,
    HedgeResolution,
    LatencyWindow,
)
from repro.cluster_health.plane import (
    DrainWindow,
    TailToleranceConfig,
    TailTolerancePlane,
)
from repro.cluster_health.score import (
    EngineScoreboard,
    HealthConfig,
    HealthState,
    HealthTransition,
)

__all__ = [
    "DrainWindow",
    "EngineScoreboard",
    "HealthConfig",
    "HealthState",
    "HealthTransition",
    "HedgeConfig",
    "HedgeResolution",
    "LatencyWindow",
    "TailToleranceConfig",
    "TailTolerancePlane",
]
