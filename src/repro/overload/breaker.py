"""Per-engine circuit breaker on the simulated clock.

The fault plane (PR 2) surfaces engine misbehaviour as typed outcomes —
:class:`~repro.faults.outcomes.BatchFailure` and
:class:`~repro.faults.outcomes.EngineDown`.  The breaker turns *rates*
of those outcomes into a dispatch gate:

- ``CLOSED`` — healthy; every slot may dispatch.  ``failure_threshold``
  consecutive failed slots trip the breaker.
- ``OPEN`` — the engine is quarantined until ``now + recovery_time``;
  :meth:`allow` answers False so the loops stop feeding it (the cluster
  re-arms the engine's heap entry at ``retry_at`` instead of burning
  slots on a sick replica).
- ``HALF_OPEN`` — entered on the first :meth:`allow` at/after
  ``retry_at``; probe batches are admitted one at a time.
  ``half_open_probes`` consecutive successes close the breaker; any
  failure re-opens it immediately.

Everything is a pure function of the (simulated) times fed in, so a
seeded fault plan replays an identical transition log — the property
``tests/test_overload.py`` pins.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.watermark import mark

__all__ = [
    "BreakerConfig",
    "BreakerState",
    "BreakerTransition",
    "CircuitBreaker",
]


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/recovery thresholds for one engine's breaker."""

    # Consecutive failed slots that trip CLOSED -> OPEN.
    failure_threshold: int = 3
    # Simulated seconds an OPEN breaker refuses dispatch.
    recovery_time: float = 1.0
    # Consecutive HALF_OPEN probe successes needed to close.
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.recovery_time <= 0.0:
            raise ValueError(
                f"recovery_time must be positive, got {self.recovery_time}"
            )
        if self.half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1, got {self.half_open_probes}"
            )


@dataclass(frozen=True)
class BreakerTransition:
    """One state change, on the simulated clock."""

    t: float
    engine: int
    old: str
    new: str
    reason: str


@dataclass
class CircuitBreaker:
    """closed → open → half-open state machine for one engine."""

    config: BreakerConfig = field(default_factory=BreakerConfig)
    engine: int = 0

    def __post_init__(self) -> None:
        self.state = BreakerState.CLOSED
        self.retry_at = 0.0
        self.transitions: list[BreakerTransition] = []
        self._consecutive_failures = 0
        self._probe_successes = 0

    # ------------------------------------------------------------------ #

    def _move(
        self, now: float, new: BreakerState, reason: str
    ) -> None:
        self.transitions.append(
            BreakerTransition(
                t=now,
                engine=self.engine,
                old=self.state.value,
                new=new.value,
                reason=reason,
            )
        )
        self.state = new

    def allow(self, now: float) -> bool:
        """May a slot dispatch to this engine at simulated time *now*?

        An OPEN breaker whose recovery interval has elapsed moves to
        HALF_OPEN here (the check *is* the probe admission).
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now < self.retry_at:
                return False
            self._probe_successes = 0
            self._move(now, BreakerState.HALF_OPEN, "recovery elapsed")
            return True
        return True  # HALF_OPEN: admit the probe

    def record_success(self, now: float) -> None:
        self._consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.config.half_open_probes:
                self._move(now, BreakerState.CLOSED, "probes succeeded")

    def record_failure(self, now: float, *, kind: str = "failure") -> None:
        if self.state is BreakerState.HALF_OPEN:
            self.retry_at = now + self.config.recovery_time
            self._consecutive_failures = 0
            self._move(now, BreakerState.OPEN, f"probe failed ({kind})")
            return
        self._consecutive_failures += 1
        if (
            self.state is BreakerState.CLOSED
            and self._consecutive_failures >= self.config.failure_threshold
        ):
            self.retry_at = now + self.config.recovery_time
            self._consecutive_failures = 0
            self._move(
                now,
                BreakerState.OPEN,
                f"{self.config.failure_threshold} consecutive failures "
                f"({kind})",
            )

    @property
    def is_open(self) -> bool:
        return self.state is BreakerState.OPEN

    def export_state(self) -> dict:
        """Plain-data state; the transition log is watermarked."""
        return {
            "state": self.state,
            "retry_at": self.retry_at,
            "transitions": mark(self.transitions),
            "consecutive_failures": self._consecutive_failures,
            "probe_successes": self._probe_successes,
        }

    def apply_state(self, state: dict) -> None:
        """Adopt a thawed :meth:`export_state`."""
        self.state = state["state"]
        self.retry_at = state["retry_at"]
        self.transitions = state["transitions"]
        self._consecutive_failures = state["consecutive_failures"]
        self._probe_successes = state["probe_successes"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitBreaker(engine={self.engine}, state={self.state.value}, "
            f"retry_at={self.retry_at:g})"
        )
