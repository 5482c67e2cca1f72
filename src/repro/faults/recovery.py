"""Recovery policies: bounded deadline-aware requeue and split-batch retry.

The interesting part of fault tolerance under DAS is that a retried
request has *less* slack than it had on first dispatch, so requeueing is
not free: a request that can no longer finish even as a solo minimal
batch (priced by the :class:`~repro.engine.cost_model.GPUCostModel`,
same feasibility rule the admission controller uses) is **abandoned**
rather than allowed to clog the queue until it expires.  Retries are
also bounded per request, so a poisonous batch cannot livelock a loop.

Two layers:

- :func:`serve_slot` — drives one engine slot, transparently applying
  split-batch retry on transient OOM (halve and re-serve; the dropped
  half simply stays in the wait queue), and normalising success,
  terminal failure and crash into a :class:`SlotOutcome` value.  It is
  the only way a serving loop runs an engine, so a typed fault cannot
  escape one.
- :meth:`RetryPolicy.triage` — the pure post-failure policy;
  :meth:`repro.serving.lifecycle.Lifecycle.failed` applies it to the
  queue and the ledgers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.engine.base import MIN_SLOT, BatchResult, InferenceEngine
from repro.engine.cost_model import GPUCostModel
from repro.faults.outcomes import BatchFailure, EngineDown
from repro.types import Request

__all__ = ["RetryPolicy", "SlotOutcome", "serve_slot"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deadline-aware requeue policy for failed requests."""

    # How many failed attempts may be requeued per request before it is
    # abandoned (max_retries=2 allows three attempts in total).
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    def triage(
        self,
        requests: Sequence[Request],
        now: float,
        cost_model: GPUCostModel,
        attempts: Mapping[int, int],
    ) -> tuple[list[Request], list[Request]]:
        """Split failed requests into (requeue, abandon).

        A request is abandoned when it exceeded the retry budget or when
        even the quickest possible service — a solo minimal batch priced
        by the cost model — can no longer meet its deadline from ``now``.
        """
        retained: list[Request] = []
        abandoned: list[Request] = []
        for r in requests:
            quickest = cost_model.batch_time(r.length, r.length**2)
            if attempts.get(r.request_id, 0) > self.max_retries:
                abandoned.append(r)
            elif r.slack(now) < quickest:
                abandoned.append(r)
            else:
                retained.append(r)
        return retained, abandoned


@dataclass
class SlotOutcome:
    """What one engine slot amounted to, faults and retries included."""

    # Successful result, or None when the slot terminally failed.
    result: Optional[BatchResult] = None
    # Requests in the final attempt (halving may have shrunk the batch).
    batch: list[Request] = field(default_factory=list)
    # Engine time consumed by failed attempts (wasted GPU time).
    wasted: float = 0.0
    # Number of failed attempts (BatchFailure events).
    failures: int = 0
    # Requests re-served by OOM halving (they count as retries).
    split_retries: int = 0
    # Requests of the terminally failed attempt (needs requeue triage).
    failed: list[Request] = field(default_factory=list)
    # Set when the engine crashed: simulated time it rejoins, and the
    # outage length this crash opened.
    down_until: Optional[float] = None
    downtime: float = 0.0

    @property
    def ok(self) -> bool:
        return self.result is not None


def serve_slot(
    engine: InferenceEngine, selected: Sequence[Request], now: float
) -> SlotOutcome:
    """Serve one slot with split-batch OOM retry; never raises.

    Healthy engines take the fast path (no fault outcome is ever
    raised, so this is a transparent call).  On a transient OOM the
    batch is halved and re-served — the dropped half stays in the wait
    queue for a later slot — which terminates because the fault model
    only aborts batches packing more tokens than the OOM threshold.
    Each re-serve consumes a fresh fault-plan event, so retried batches
    can fail again; terminal failures and crashes are returned, not
    raised, so serving loops handle them in one place.
    """
    batch = list(selected)
    wasted = 0.0
    failures = 0
    split_retries = 0
    while True:
        try:
            result = engine.serve(batch, now=now + wasted)
        except BatchFailure as failure:
            failures += 1
            wasted += max(failure.latency, MIN_SLOT)
            if failure.kind == "oom" and len(batch) > 1:
                # Ceil-half: an odd batch keeps its larger half, so the
                # ladder is 5 -> 3 -> 2 -> 1 (floor-halving 5 -> 2 -> 1
                # dropped more than half on odd sizes).  Still strictly
                # decreasing for len > 1, so the retry terminates.
                batch = batch[: (len(batch) + 1) // 2]
                split_retries += len(batch)
                continue
            return SlotOutcome(
                batch=batch,
                wasted=wasted,
                failures=failures,
                split_retries=split_retries,
                failed=list(failure.requests),
            )
        except EngineDown as down:
            return SlotOutcome(
                batch=batch,
                wasted=wasted,
                failures=failures,
                split_retries=split_retries,
                failed=list(down.requests),
                down_until=down.down_until,
                downtime=down.downtime,
            )
        return SlotOutcome(
            result=result,
            batch=batch,
            wasted=wasted,
            failures=failures,
            split_retries=split_retries,
        )

