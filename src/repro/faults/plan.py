"""Seeded, deterministic fault plans for chaos-testing the serving loops.

A :class:`FaultPlan` is the single source of injected misbehaviour: for
each engine-slot index it decides — reproducibly, from the seed alone —
whether that slot fails outright, straggles, hits a transient OOM, or
crashes the engine.  Determinism matters more than realism here: a
chaos benchmark is only debuggable if the exact same fault sequence can
be replayed from ``(config, seed)``, so each slot's event is derived
from an independent per-index stream (query order cannot perturb it).

The plan is policy-free: it only *describes* faults.  How a serving
loop recovers (requeue, split-batch retry, failover) lives in
:mod:`repro.faults.recovery` and the loops themselves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.rng import ensure_rng

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultConfig",
    "FaultConfigError",
    "FaultPlan",
    "SchedulerCrash",
    "SchedulerCrashed",
]


class FaultConfigError(ValueError):
    """An ill-formed fault plan configuration or event.

    Subclasses ``ValueError`` so existing ``except ValueError`` guards
    keep working; callers who want to distinguish chaos-plan mistakes
    from other argument errors catch this type.
    """

# Stream-domain tag mixed into every SeedSequence key below.  Each
# consumer of per-index child streams owns a distinct tag so two
# components sharing an experiment seed can never consume the same
# stream (TCB011, tests/test_static_invariants.py); the shedding
# policies use a different tag.
_STREAM_FAULT_PLAN = 0xFA
# Scheduler-crash step draws use their own domain tag: a crash plan and
# a fault plan sharing one experiment seed must stay independent.
_STREAM_SCHEDULER_CRASH = 0xCC


class FaultKind(enum.Enum):
    """What goes wrong in one engine slot."""

    NONE = "none"
    FAILURE = "failure"  # batch fails after consuming its latency
    STRAGGLER = "straggler"  # batch completes, latency multiplied
    OOM = "oom"  # transient alloc failure if the batch packs too many tokens
    CRASH = "crash"  # engine goes down for a recovery interval


@dataclass(frozen=True)
class FaultEvent:
    """One slot's injected fault (``NONE`` for the healthy common case).

    Shape parameters are validated against the kind: a ``NONE`` event
    must be truly inert (a "zero-probability" slot cannot smuggle in a
    latency multiplier or downtime), a ``STRAGGLER`` must actually
    inflate latency, and a ``CRASH`` must carry a positive recovery
    interval — otherwise downstream accounting silently degrades.
    """

    kind: FaultKind = FaultKind.NONE
    # Latency multiplier; only meaningful for STRAGGLER events.
    multiplier: float = 1.0
    # Engine recovery interval in seconds; only meaningful for CRASH.
    downtime: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.multiplier) or not math.isfinite(
            self.downtime
        ):
            raise FaultConfigError(
                f"fault event parameters must be finite, got "
                f"multiplier={self.multiplier}, downtime={self.downtime}"
            )
        if self.kind is FaultKind.STRAGGLER:
            if self.multiplier < 1.0:
                raise FaultConfigError(
                    f"straggler multiplier must be >= 1, "
                    f"got {self.multiplier}"
                )
        elif self.multiplier != 1.0:
            raise FaultConfigError(
                f"{self.kind.value} event cannot carry a latency "
                f"multiplier ({self.multiplier})"
            )
        if self.kind is FaultKind.CRASH:
            if self.downtime <= 0.0:
                raise FaultConfigError(
                    f"crash downtime must be positive, got {self.downtime}"
                )
        elif self.downtime != 0.0:
            raise FaultConfigError(
                f"{self.kind.value} event cannot carry a downtime "
                f"({self.downtime})"
            )


@dataclass(frozen=True)
class FaultConfig:
    """Per-slot fault probabilities and shape parameters.

    The four rates are mutually exclusive per slot (at most one fault
    kind fires), so they must sum to at most 1.  ``oom_threshold`` is
    the fraction of the batch token capacity above which an OOM event
    actually aborts the batch — small batches survive the same draw,
    which is what makes split-batch retry converge.
    """

    failure_rate: float = 0.0
    straggler_rate: float = 0.0
    oom_rate: float = 0.0
    crash_rate: float = 0.0
    # Straggler latency multiplier is drawn uniformly from this range.
    straggler_multiplier: tuple[float, float] = (2.0, 6.0)
    # Mean crash downtime; actual downtime is uniform in [0.5, 1.5]×this.
    downtime: float = 1.0
    oom_threshold: float = 0.5

    def __post_init__(self) -> None:
        rates = (
            self.failure_rate,
            self.straggler_rate,
            self.oom_rate,
            self.crash_rate,
        )
        for r in rates:
            if not 0.0 <= r <= 1.0:
                raise FaultConfigError(
                    f"fault rates must be in [0, 1], got {r}"
                )
        if sum(rates) > 1.0 + 1e-12:
            raise FaultConfigError(f"fault rates sum to {sum(rates)} > 1")
        lo, hi = self.straggler_multiplier
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise FaultConfigError(
                f"straggler_multiplier range must be finite, got ({lo}, {hi})"
            )
        if lo < 1.0 or hi < lo:
            raise FaultConfigError(
                f"straggler_multiplier range must satisfy 1 <= lo <= hi, "
                f"got ({lo}, {hi})"
            )
        if self.downtime <= 0.0 or not math.isfinite(self.downtime):
            raise FaultConfigError(
                f"downtime must be positive and finite, got {self.downtime}"
            )
        if not 0.0 < self.oom_threshold <= 1.0:
            raise FaultConfigError(
                f"oom_threshold must be in (0, 1], got {self.oom_threshold}"
            )

    @property
    def is_zero(self) -> bool:
        """True when no fault can ever fire (healthy passthrough)."""
        return (
            self.failure_rate == 0.0
            and self.straggler_rate == 0.0
            and self.oom_rate == 0.0
            and self.crash_rate == 0.0
        )

    @classmethod
    def chaos(cls, rate: float, **overrides) -> "FaultConfig":
        """One-knob preset: ``rate`` is the total per-slot fault
        probability, split 40/30/20/10 across failure / straggler /
        OOM / crash (ordered from most to least common in real fleets).
        """
        if not 0.0 <= rate <= 1.0:
            raise FaultConfigError(f"rate must be in [0, 1], got {rate}")
        return cls(
            failure_rate=0.4 * rate,
            straggler_rate=0.3 * rate,
            oom_rate=0.2 * rate,
            crash_rate=0.1 * rate,
            **overrides,
        )


class SchedulerCrashed(RuntimeError):
    """A serving loop was killed mid-step by a :class:`SchedulerCrash`.

    Raised by the durability plane at the planned crash point; carries
    where the loop died so the recovery harness (and the differential
    report) can name the boundary being resolved.
    """

    def __init__(self, step: int, phase: str):
        super().__init__(
            f"scheduler process crashed at step {step} ({phase})"
        )
        self.step = step
        self.phase = phase


@dataclass(frozen=True)
class SchedulerCrash:
    """Kill the *scheduler process* at a planned point, not an engine.

    ``step`` is the serving-loop step index at which the crash fires;
    ``phase`` says where inside the step:

    - ``"step"`` — at the step boundary, right after the step's
      snapshot (if one was due),
    - ``"dispatch"`` — after a batch is selected but before the engine
      runs it (mid-step: the restored run re-executes the selection and
      the dispatch).

    A crash fires at most once; a restored run disarms it.
    """

    step: int
    phase: str = "step"

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError(f"crash step must be >= 0, got {self.step}")
        if self.phase not in ("step", "dispatch"):
            raise ValueError(
                f"crash phase must be 'step' or 'dispatch', got {self.phase!r}"
            )

    @classmethod
    def seeded(
        cls, seed: int, *, max_step: int, phase: str = "step"
    ) -> "SchedulerCrash":
        """Draw the crash step from ``(seed, domain, 0)`` — replayable.

        ``max_step`` bounds the draw (exclusive); the same seed always
        kills the same step, independent of anything else the seed
        feeds (distinct stream-domain tag, TCB011 in
        ``tests/test_static_invariants.py``).
        """
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        if max_step < 1:
            raise ValueError(f"max_step must be >= 1, got {max_step}")
        rng = ensure_rng(
            np.random.SeedSequence((int(seed), _STREAM_SCHEDULER_CRASH, 0))
        )
        return cls(step=int(rng.integers(0, max_step)), phase=phase)


class FaultPlan:
    """Deterministic map from engine-slot index to :class:`FaultEvent`.

    Each index gets its own child stream seeded by ``(seed,
    stream-domain, index)``, so ``plan.event(i)`` is a pure function of
    ``(config, seed, i)`` — two plans with equal seeds produce identical
    event sequences no matter how (or in what order) they are queried.
    The stream-domain tag keeps the plan's streams disjoint from every
    other seeded component in the same experiment.
    """

    def __init__(self, config: FaultConfig, seed: int = 0):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.config = config
        self.seed = int(seed)
        self._cache: dict[int, FaultEvent] = {}

    def event(self, index: int) -> FaultEvent:
        """The fault event for engine slot ``index`` (cached)."""
        if index < 0:
            raise ValueError(f"slot index must be >= 0, got {index}")
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        event = self._draw(index)
        self._cache[index] = event
        return event

    def _draw(self, index: int) -> FaultEvent:
        c = self.config
        if c.is_zero:
            return FaultEvent()
        rng = ensure_rng(
            np.random.SeedSequence((self.seed, _STREAM_FAULT_PLAN, index))
        )
        u = float(rng.uniform())
        edge = c.failure_rate
        if u < edge:
            return FaultEvent(kind=FaultKind.FAILURE)
        edge += c.straggler_rate
        if u < edge:
            lo, hi = c.straggler_multiplier
            return FaultEvent(
                kind=FaultKind.STRAGGLER,
                multiplier=float(rng.uniform(lo, hi)),
            )
        edge += c.oom_rate
        if u < edge:
            return FaultEvent(kind=FaultKind.OOM)
        edge += c.crash_rate
        if u < edge:
            return FaultEvent(
                kind=FaultKind.CRASH,
                downtime=float(rng.uniform(0.5, 1.5)) * c.downtime,
            )
        return FaultEvent()

    def events(self, n: int) -> list[FaultEvent]:
        """Materialise the first ``n`` slots' events."""
        return [self.event(i) for i in range(n)]

    def counts(self, n: int) -> dict[str, int]:
        """Histogram of fault kinds over the first ``n`` slots."""
        out = {kind.value: 0 for kind in FaultKind}
        for e in self.events(n):
            out[e.kind.value] += 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, config={self.config})"
