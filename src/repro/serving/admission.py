"""Admission control: reject hopeless requests at arrival.

Serving systems commonly shed load early rather than queue requests
that cannot possibly meet their deadline.  An
:class:`AdmissionController` inspects each arriving request and either
admits it or rejects it immediately, based on:

- **feasibility** — the request is longer than a batch row (it can never
  be scheduled, Eq. 11), or its deadline precedes even one batch's
  inference time;
- **queue pressure** — optional cap on total queued tokens; beyond it
  the newest *lowest-utility* arrivals are shed first.

This composes with any scheduler (it filters the stream *before* the
queue) and is exercised as an ablation in the benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.config import BatchConfig
from repro.engine.cost_model import GPUCostModel
from repro.types import Request
from repro.watermark import mark

__all__ = ["AdmissionController", "AdmissionDecision"]


@dataclass
class AdmissionDecision:
    admitted: bool
    reason: str = "ok"


@dataclass
class AdmissionController:
    """Stateless feasibility checks + stateful token-pressure shedding."""

    batch: BatchConfig
    cost_model: Optional[GPUCostModel] = None
    # Max total tokens allowed in the wait queue; None disables shedding.
    max_queued_tokens: Optional[int] = None
    # Utility floor: requests below it are shed when over pressure.
    _queued_tokens: int = field(default=0, init=False)
    rejected: list[Request] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.cost_model is None:
            self.cost_model = GPUCostModel.calibrated()
        if self.max_queued_tokens is not None and self.max_queued_tokens < 1:
            raise ValueError("max_queued_tokens must be >= 1")

    # ------------------------------------------------------------------ #

    def check(self, request: Request, now: float) -> AdmissionDecision:
        """Feasibility checks for one arriving request."""
        if request.length > self.batch.row_length:
            return AdmissionDecision(False, "longer than batch row")
        assert self.cost_model is not None
        # The soonest this request can complete is one minimal batch away:
        # a batch holding just this request.
        quickest = self.cost_model.batch_time(
            request.length, request.length**2
        )
        if now + quickest > request.deadline:
            return AdmissionDecision(False, "deadline unreachable")
        if (
            self.max_queued_tokens is not None
            and self._queued_tokens + request.length > self.max_queued_tokens
        ):
            return AdmissionDecision(False, "queue pressure")
        return AdmissionDecision(True)

    def decide(self, request: Request, now: float) -> AdmissionDecision:
        """Check and record; rejected requests land in ``self.rejected``."""
        decision = self.check(request, now)
        if decision.admitted:
            self._queued_tokens += request.length
        else:
            self.rejected.append(request)
        return decision

    def admit(self, request: Request, now: float) -> bool:
        """:meth:`decide`, for callers that do not need the reason."""
        return self.decide(request, now).admitted

    def charge(self, requests: Sequence[Request]) -> None:
        """Count *requests*, admitted before a restart, as queued again."""
        self._queued_tokens += sum(r.length for r in requests)

    def release(self, requests: Sequence[Request]) -> None:
        """Notify the controller that requests left the queue."""
        for r in requests:
            self._queued_tokens = max(0, self._queued_tokens - r.length)

    @property
    def queued_tokens(self) -> int:
        return self._queued_tokens

    def export_state(self) -> dict:
        """Token pressure + the (grow-only, watermarked) refusal list."""
        return {
            "queued_tokens": self._queued_tokens,
            "rejected": mark(self.rejected),
        }

    def apply_state(self, state: dict) -> None:
        """Adopt a thawed :meth:`export_state`."""
        self._queued_tokens = state["queued_tokens"]
        self.rejected = state["rejected"]
