"""Plumbing shared by every serving loop (simulator, cluster, continuous).

One home for the constants that used to be copy-pasted per loop, so
the loops cannot drift apart on workload handling, the engine-time
floor, or how an engine receives its slot size.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.engine.base import MIN_SLOT, InferenceEngine
from repro.scheduling.base import SchedulingDecision
from repro.types import Request
from repro.workload.generator import WorkloadGenerator

__all__ = ["MIN_SLOT", "apply_slot_size", "resolve_workload"]


def resolve_workload(
    workload: Union[WorkloadGenerator, Sequence[Request]],
    horizon: Optional[float],
) -> tuple[list[Request], float]:
    """Lower a workload generator or request list to ``(requests, horizon)``.

    Generators are duck-typed on ``generate()`` so the Poisson and burst
    workloads both plug in; a plain request list is sorted by
    ``(arrival, request_id)`` and, absent an explicit horizon, served
    until one second past the last arrival.
    """
    if hasattr(workload, "generate"):
        requests = workload.generate()
        if horizon is None:
            horizon = workload.horizon
    else:
        requests = sorted(workload, key=lambda r: (r.arrival, r.request_id))
        if horizon is None:
            horizon = max((r.arrival for r in requests), default=0.0) + 1.0
    return list(requests), float(horizon)


def apply_slot_size(engine: InferenceEngine, decision: SchedulingDecision) -> None:
    """Forward a slotted scheduler's slot size (Algorithm 2) to the engine."""
    if decision.slot_size is not None:
        engine.set_slot_size(decision.slot_size)
