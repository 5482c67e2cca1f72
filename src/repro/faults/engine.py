"""Fault-injecting wrapper over any :class:`~repro.engine.base.InferenceEngine`.

``FaultyEngine`` sits between a serving loop and a real engine and
consults a :class:`~repro.faults.plan.FaultPlan` once per ``serve()``
call.  Healthy slots pass straight through — with an all-zero fault
config the wrapper is a bit-identical no-op (tested against the cluster
and golden suites) — while faulty slots surface as typed outcomes:

- ``FAILURE`` → :class:`~repro.faults.outcomes.BatchFailure` after the
  batch's latency was consumed (the work is lost, the time is not),
- ``OOM`` → :class:`BatchFailure(kind="oom")` *iff* the packed tokens
  exceed the configured fraction of the batch capacity; only the launch
  overhead is consumed, and halving the batch is guaranteed to
  eventually duck under the threshold,
- ``STRAGGLER`` → a normal result with multiplied latency,
- ``CRASH`` → :class:`~repro.faults.outcomes.EngineDown` with a
  recovery time; further calls before ``down_until`` are refused with
  another ``EngineDown`` (no silent zombie serving).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.layout import BatchLayout
from repro.engine.base import BatchResult, InferenceEngine
from repro.faults.outcomes import BatchFailure, EngineDown
from repro.faults.plan import FaultKind, FaultPlan
from repro.types import Request

__all__ = ["FaultyEngine"]


class FaultyEngine(InferenceEngine):
    """Wrap ``inner`` so that serving sees faults from ``fault_plan``."""

    name = "faulty"

    def __init__(self, inner: InferenceEngine, fault_plan: FaultPlan):
        super().__init__(inner.batch, mode=inner.mode, cost_model=inner.cost_model)
        self.inner = inner
        self.fault_plan = fault_plan
        # Plan index: one event per serve() attempt (retries draw fresh
        # events, so a retried batch can fail again — or straggle).
        self.serve_calls = 0
        self.straggler_events = 0
        self.down_until = 0.0

    # ------------------------------------------------------------------ #

    def plan(
        self, requests: Sequence[Request]
    ) -> tuple[list[BatchLayout], list[Request]]:
        return self.inner.plan(requests)

    def set_slot_size(self, slot_size: int) -> None:
        self.inner.set_slot_size(slot_size)

    def serve(
        self, requests: Sequence[Request], *, now: float = 0.0
    ) -> BatchResult:
        if not requests:
            return self.inner.serve(requests)
        if now < self.down_until:
            # Still recovering from an earlier crash: refuse the work.
            raise EngineDown(self.down_until, requests)
        if self.fault_plan.config.is_zero:
            return self.inner.serve(requests)

        event = self.fault_plan.event(self.serve_calls)
        self.serve_calls += 1
        kind = event.kind

        if kind is FaultKind.CRASH:
            self.down_until = now + event.downtime
            raise EngineDown(self.down_until, requests, downtime=event.downtime)
        if kind is FaultKind.OOM:
            tokens = sum(r.length for r in requests)
            budget = self.fault_plan.config.oom_threshold * self.batch.capacity_tokens
            if tokens > budget:
                # Allocation failed before any compute: only the launch
                # overhead is wasted.  A halved batch re-tests the budget.
                raise BatchFailure(
                    "oom", self.cost_model.fixed_per_batch, requests
                )
            kind = FaultKind.NONE  # small batch: the allocation fits

        result = self.inner.serve(requests)
        if kind is FaultKind.FAILURE:
            # The batch ran (and took its time) but produced nothing.
            raise BatchFailure("failure", result.latency, requests)
        if kind is FaultKind.STRAGGLER:
            self.straggler_events += 1
            result.latency *= event.multiplier
        return result

    @property
    def model(self):
        """The inner engine's model: a wrapper runs nothing of its own."""
        return self.inner.model

    @model.setter
    def model(self, model) -> None:
        self.inner.model = model

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultyEngine({self.inner!r}, plan={self.fault_plan!r})"
