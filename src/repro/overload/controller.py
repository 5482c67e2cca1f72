"""The overload controller: degradation state machine + composition.

One :class:`OverloadController` per serving run ties the overload plane
together for the loops (which accept it via their ``overload=``
keyword):

- **bounded queue** — on every scheduling opportunity the controller
  reads the queue's :class:`~repro.overload.backpressure.QueuePressure`
  and chooses victims (by the configured
  :class:`~repro.overload.shedding.SheddingPolicy`); the run's
  :class:`~repro.serving.lifecycle.Lifecycle` removes and ledgers them,
- **degradation** — a hysteresis state machine NORMAL → SHED → BROWNOUT
  keyed on queue delay and the rolling deadline-miss rate.  SHED and
  BROWNOUT tighten admission (a minimum-slack floor on arrivals);
  BROWNOUT additionally shrinks the effective batch budget so slot
  latency — and with it tail latency — contracts instead of exploding,
- **circuit breakers** — one per engine index, driven by the typed
  fault outcomes the loops already observe.

All state advances on the simulated clock only, every transition is
recorded (and emitted as a typed overload span when tracing), and the
whole plane is inert by default: an all-default
:class:`OverloadConfig` never sheds, never trips, never degrades.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.obs.recorder import NO_TRACE
from repro.overload.backpressure import QueueLimits
from repro.overload.breaker import BreakerConfig, CircuitBreaker
from repro.overload.shedding import LowestUtilityFirst, SheddingPolicy
from repro.types import Request
from repro.watermark import mark

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduling.queue import RequestQueue

__all__ = [
    "DegradationConfig",
    "LevelTransition",
    "OverloadConfig",
    "OverloadController",
    "ServiceLevel",
]


class ServiceLevel(enum.IntEnum):
    """Ordered degradation levels (int-comparable)."""

    NORMAL = 0
    SHED = 1
    BROWNOUT = 2

    @property
    def label(self) -> str:
        return self.name.lower()


NORMAL = ServiceLevel.NORMAL
SHED = ServiceLevel.SHED
BROWNOUT = ServiceLevel.BROWNOUT


@dataclass(frozen=True)
class DegradationConfig:
    """Thresholds of the NORMAL → SHED → BROWNOUT state machine.

    Enter thresholds must exceed exit thresholds (that gap *is* the
    hysteresis: a system hovering at the boundary does not flap).  The
    level is the max over the two signals — queue delay (age of the
    oldest waiting request, seconds) and the rolling deadline-miss rate
    over the last ``miss_window`` terminal outcomes.
    """

    shed_enter_delay: float = 1.0
    shed_exit_delay: float = 0.5
    brownout_enter_delay: float = 2.0
    brownout_exit_delay: float = 1.0
    miss_window: int = 64
    # Minimum outcomes before the miss-rate signal is trusted.
    min_window: int = 16
    shed_enter_miss: float = 0.4
    shed_exit_miss: float = 0.2
    brownout_enter_miss: float = 0.7
    brownout_exit_miss: float = 0.4
    # BROWNOUT keeps this fraction of each packed batch / token budget.
    brownout_batch_fraction: float = 0.5
    # Admission floors: arrivals with less slack are refused while
    # degraded (0.0 = no tightening, the inert default).
    shed_min_slack: float = 0.0
    brownout_min_slack: float = 0.0

    def __post_init__(self) -> None:
        pairs = (
            (self.shed_enter_delay, self.shed_exit_delay, "shed delay"),
            (self.brownout_enter_delay, self.brownout_exit_delay, "brownout delay"),
            (self.shed_enter_miss, self.shed_exit_miss, "shed miss"),
            (self.brownout_enter_miss, self.brownout_exit_miss, "brownout miss"),
        )
        for enter, exit_, label in pairs:
            if exit_ > enter:
                raise ValueError(
                    f"{label}: exit threshold {exit_} exceeds enter {enter} "
                    "(hysteresis requires exit <= enter)"
                )
        if self.shed_enter_delay > self.brownout_enter_delay:
            raise ValueError("brownout delay threshold below shed threshold")
        if self.miss_window < 1 or self.min_window < 1:
            raise ValueError("miss_window and min_window must be >= 1")
        if not 0.0 < self.brownout_batch_fraction <= 1.0:
            raise ValueError(
                "brownout_batch_fraction must be in (0, 1], got "
                f"{self.brownout_batch_fraction}"
            )
        if self.shed_min_slack < 0.0 or self.brownout_min_slack < 0.0:
            raise ValueError("admission slack floors must be >= 0")


@dataclass(frozen=True)
class LevelTransition:
    """One degradation-level change, on the simulated clock."""

    t: float
    old: str
    new: str
    reason: str


@dataclass(frozen=True)
class OverloadConfig:
    """What the overload plane does; all-default = fully inert."""

    limits: QueueLimits = field(default_factory=QueueLimits)
    shedding: Optional[SheddingPolicy] = None
    breaker: Optional[BreakerConfig] = None
    degradation: Optional[DegradationConfig] = None

    @property
    def inert(self) -> bool:
        return (
            self.limits.unbounded
            and self.breaker is None
            and self.degradation is None
        )


class OverloadController:
    """Per-run overload state; construct once, pass via ``overload=``."""

    def __init__(self, config: Optional[OverloadConfig] = None):
        self.config = config or OverloadConfig()
        self._shedder: SheddingPolicy = (
            self.config.shedding or LowestUtilityFirst()
        )
        self.begin_run()

    # ------------------------------------------------------------------ #
    # Run lifecycle
    # ------------------------------------------------------------------ #

    def begin_run(self) -> None:
        """Reset per-run state (the loops call this at run start)."""
        self.level: ServiceLevel = NORMAL
        self.transitions: list[LevelTransition] = []
        self.shed_total = 0
        self.denied = 0
        self._outcomes: deque[int] = deque(
            maxlen=(
                self.config.degradation.miss_window
                if self.config.degradation is not None
                else 1
            )
        )
        self._breakers: dict[int, CircuitBreaker] = {}
        self._shedder.reset()

    # ------------------------------------------------------------------ #
    # Durability export / apply (see repro.durability.snapshot)
    # ------------------------------------------------------------------ #

    def export_state(self) -> dict:
        """All per-run state as plain data.

        Fresh containers for what mutates in place (the miss window, each
        breaker's counters), watermarks for the transition logs, and the
        shedder's decision cursor so a restored RandomShed replays the
        same per-decision streams.
        """
        return {
            "level": self.level,
            "transitions": mark(self.transitions),
            "shed_total": self.shed_total,
            "denied": self.denied,
            "outcomes": list(self._outcomes),
            "breakers": {
                engine: br.export_state()
                for engine, br in self._breakers.items()
            },
            "shedder": self._shedder.export_state(),
        }

    def apply_state(self, state: dict) -> None:
        """Adopt a thawed :meth:`export_state` (warm-restart path)."""
        self.begin_run()
        self.level = state["level"]
        self.transitions = state["transitions"]
        self.shed_total = state["shed_total"]
        self.denied = state["denied"]
        self._outcomes.extend(state["outcomes"])
        for engine, bstate in state["breakers"].items():
            self.breaker(engine).apply_state(bstate)
        self._shedder.apply_state(state["shedder"])

    # ------------------------------------------------------------------ #
    # Degradation state machine
    # ------------------------------------------------------------------ #

    @property
    def miss_rate(self) -> float:
        d = self.config.degradation
        if d is None or len(self._outcomes) < d.min_window:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    def observe_outcomes(self, *, served: int = 0, missed: int = 0) -> None:
        """Feed terminal outcomes into the rolling miss window."""
        if self.config.degradation is None:
            return
        self._outcomes.extend([0] * served)
        self._outcomes.extend([1] * missed)

    @staticmethod
    def _signal_level(
        value: float,
        current: ServiceLevel,
        enter_shed: float,
        exit_shed: float,
        enter_brown: float,
        exit_brown: float,
    ) -> ServiceLevel:
        if current >= BROWNOUT:
            if value >= exit_brown:
                return BROWNOUT
            return SHED if value >= exit_shed else NORMAL
        if current >= SHED:
            if value >= enter_brown:
                return BROWNOUT
            return SHED if value >= exit_shed else NORMAL
        if value >= enter_brown:
            return BROWNOUT
        return SHED if value >= enter_shed else NORMAL

    def update(self, now: float, queue: "RequestQueue", tracer=NO_TRACE) -> ServiceLevel:
        """Re-evaluate the service level from the current signals."""
        d = self.config.degradation
        if d is None:
            return self.level
        delay = queue.queue_delay(now)
        miss = self.miss_rate
        by_delay = self._signal_level(
            delay,
            self.level,
            d.shed_enter_delay,
            d.shed_exit_delay,
            d.brownout_enter_delay,
            d.brownout_exit_delay,
        )
        by_miss = self._signal_level(
            miss,
            self.level,
            d.shed_enter_miss,
            d.shed_exit_miss,
            d.brownout_enter_miss,
            d.brownout_exit_miss,
        )
        new = max(by_delay, by_miss)
        if new != self.level:
            reason = f"queue_delay={delay:.6f} miss_rate={miss:.6f}"
            self.transitions.append(
                LevelTransition(
                    t=now, old=self.level.label, new=new.label, reason=reason
                )
            )
            if tracer.enabled:
                tracer.overload(
                    now,
                    "level",
                    old=self.level.label,
                    new=new.label,
                    queue_delay=delay,
                    miss_rate=miss,
                )
            self.level = new
        return self.level

    def deny(self, arrivals: Sequence[Request]) -> list[int]:
        """Degradation-tightened admission (on top of any controller).

        Returns the positions in *arrivals* whose slack at their own
        arrival time is below the level's floor — none while the level
        is normal, when the requests are not even looked at.
        """
        d = self.config.degradation
        if d is None or self.level <= NORMAL:
            return []
        floor = (
            d.brownout_min_slack if self.level >= BROWNOUT else d.shed_min_slack
        )
        denied = [k for k, r in enumerate(arrivals) if r.slack(r.arrival) < floor]
        self.denied += len(denied)
        return denied

    def cap_batch(self, selected: list[Request]) -> list[Request]:
        """Shrink the effective batch budget under BROWNOUT."""
        d = self.config.degradation
        if d is None or self.level < BROWNOUT or not selected:
            return selected
        keep = max(1, int(len(selected) * d.brownout_batch_fraction))
        return selected[:keep]

    def scale_budget(self, budget: int) -> int:
        """BROWNOUT token budget for iteration-level admission."""
        d = self.config.degradation
        if d is None or self.level < BROWNOUT:
            return budget
        return max(1, int(budget * d.brownout_batch_fraction))

    # ------------------------------------------------------------------ #
    # Bounded queue + shedding
    # ------------------------------------------------------------------ #

    def shed_victims(self, queue: "RequestQueue", now: float) -> Sequence[Request]:
        """Whom to shed to get back under the queue limits (often no one).

        Only the choice is made here; :class:`~repro.serving.lifecycle.
        Lifecycle` takes the victims off the queue, books them and
        reports the count back through :meth:`note_shed`.
        """
        if self.config.limits.unbounded:
            return ()
        pressure = queue.pressure(self.config.limits)
        if not pressure.overloaded:
            return ()
        return self._shedder.select_victims(queue.waiting(now), pressure, now)

    @property
    def shed_policy(self) -> str:
        return self._shedder.name

    def note_shed(self, count: int) -> None:
        self.shed_total += count

    # ------------------------------------------------------------------ #
    # Circuit breakers
    # ------------------------------------------------------------------ #

    def breaker(self, engine: int) -> Optional[CircuitBreaker]:
        if self.config.breaker is None:
            return None
        br = self._breakers.get(engine)
        if br is None:
            br = CircuitBreaker(self.config.breaker, engine=engine)
            self._breakers[engine] = br
        return br

    def _emit_breaker(self, br: CircuitBreaker, tracer, before: int) -> None:
        if tracer.enabled:
            for t in br.transitions[before:]:
                tracer.overload(
                    t.t,
                    "breaker",
                    engine=t.engine,
                    old=t.old,
                    new=t.new,
                    reason=t.reason,
                )

    def breaker_allow(self, engine: int, now: float, tracer=NO_TRACE) -> bool:
        """May the loop dispatch to *engine* now?  True without breakers."""
        br = self.breaker(engine)
        if br is None:
            return True
        before = len(br.transitions)
        allowed = br.allow(now)
        self._emit_breaker(br, tracer, before)
        return allowed

    def breaker_retry_at(self, engine: int) -> float:
        br = self.breaker(engine)
        return 0.0 if br is None else br.retry_at

    def record_result(
        self,
        engine: int,
        now: float,
        *,
        ok: bool,
        kind: str = "failure",
        tracer=NO_TRACE,
    ) -> None:
        """Feed one slot outcome into *engine*'s breaker (if any)."""
        br = self.breaker(engine)
        if br is None:
            return
        before = len(br.transitions)
        if ok:
            br.record_success(now)
        else:
            br.record_failure(now, kind=kind)
        self._emit_breaker(br, tracer, before)

    # ------------------------------------------------------------------ #
    # Audit trail
    # ------------------------------------------------------------------ #

    def transition_log(self) -> list[tuple]:
        """Level + breaker transitions, merged and deterministically ordered."""
        rows: list[tuple] = [
            ("level", t.t, -1, t.old, t.new, t.reason)
            for t in self.transitions
        ]
        for engine in sorted(self._breakers):
            rows.extend(
                ("breaker", t.t, engine, t.old, t.new, t.reason)
                for t in self._breakers[engine].transitions
            )
        rows.sort(key=lambda r: (r[1], r[0], r[2]))
        return rows
