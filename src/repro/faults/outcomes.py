"""Typed fault outcomes raised by :class:`~repro.faults.engine.FaultyEngine`.

A faulty slot must never look like a successful one: instead of
returning a doctored :class:`~repro.engine.base.BatchResult`, the
wrapper raises one of these exceptions.  Serving loops catch them
explicitly (TCB007 in ``tests/test_static_invariants.py`` bans
bare/silent handlers in the serving and engine trees, so a loop cannot
quietly drop them) and apply the recovery policies in :mod:`repro.faults.recovery`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.types import Request

__all__ = ["FaultOutcome", "BatchFailure", "EngineDown"]


class FaultOutcome(Exception):
    """Base class: one engine slot did not complete normally."""

    def __init__(self, message: str, requests: Optional[Sequence[Request]] = None):
        super().__init__(message)
        # The requests that were in the failed slot; the serving loop's
        # requeue policy decides their fate.
        self.requests: list[Request] = list(requests or [])


class BatchFailure(FaultOutcome):
    """The batch failed after consuming ``latency`` seconds of engine time.

    ``kind`` distinguishes recovery policy: ``"oom"`` failures are
    retried by halving the batch (the allocation, not the work, was the
    problem); ``"failure"`` means the work itself was lost.
    """

    def __init__(self, kind: str, latency: float, requests: Sequence[Request]):
        super().__init__(f"batch failed ({kind})", requests)
        self.kind = kind
        self.latency = float(latency)


class EngineDown(FaultOutcome):
    """The engine crashed (or is still recovering) and cannot serve.

    ``down_until`` is the simulated time at which the engine rejoins;
    ``downtime`` is the length of the outage that *this* event opened
    (zero when the engine was already down and merely refused work).
    """

    def __init__(
        self,
        down_until: float,
        requests: Sequence[Request],
        downtime: float = 0.0,
    ):
        super().__init__(f"engine down until t={down_until:.3f}", requests)
        self.down_until = float(down_until)
        self.downtime = float(downtime)
