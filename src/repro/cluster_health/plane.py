"""The tail-tolerance plane: health-scored placement, drains, hedging.

One :class:`TailTolerancePlane` per cluster run composes the three
tail-tolerance mechanisms on top of :mod:`repro.cluster_health.score`
and :mod:`repro.cluster_health.hedge`:

- **health-scored placement** — when several engines are idle at the
  same simulated timestamp, :meth:`place` picks the highest-scored one;
  exact score ties break through a dedicated ``repro.rng`` stream
  (domain tag distinct from the fault plan / crash plan / shed streams,
  TCB011 in ``tests/test_static_invariants.py``), so placement is replay-stable and independent of
  every other seeded component.  QUARANTINED engines are deferred to
  their next probe window and drained engines to their readmit time.
- **drain / readmit** — an operator-style rolling-restart primitive:
  a drained engine finishes its in-flight slot (placement never
  preempts) and then stops receiving work until the drain lifts.
  Drains are scheduled declaratively (:class:`DrainWindow`) or
  imperatively (:meth:`drain` / :meth:`readmit` between runs).
- **hedged dispatch support** — the rolling busy-time window feeds a
  quantile deadline (:meth:`hedge_deadline`, computed *at dispatch*
  from pre-dispatch state, so the decision is causal) and
  :meth:`hedge_target` picks the healthy idle engine a duplicate goes
  to.  The cluster loop owns the actual first-completion-wins
  resolution and its exactly-once ledger accounting.

The plane is inert by default: ``TailToleranceConfig()`` reports
``inert`` and the cluster loop then takes exactly its pre-plane paths
(bit-identical digests, tested).  All mutable state is exportable /
re-appliable as plain data so the durability plane can snapshot it and
a warm restart replays identical placement and hedge decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from repro.cluster_health.hedge import HedgeConfig, LatencyWindow
from repro.cluster_health.score import (
    EngineScoreboard,
    HealthConfig,
    HealthState,
    HealthTransition,
)
from repro.obs.recorder import NO_TRACE
from repro.rng import ensure_rng
from repro.watermark import mark

__all__ = [
    "DrainWindow",
    "TailToleranceConfig",
    "TailTolerancePlane",
]

# Stream-domain tag for placement tie-breaks.  Distinct from the fault
# plan (0xFA), scheduler crash (0xCC) and random-shed (0x5D) tags, so a
# cluster sharing one experiment seed across all planes never aliases
# streams (TCB011, tests/test_static_invariants.py).
_STREAM_HEALTH_PLACEMENT = 0x7B

# Heap entry: (idle_at, tiebreak, engine_index) — the cluster loop's
# idle-heap tuple shape.
_Entry = tuple[float, int, int]


@dataclass(frozen=True)
class DrainWindow:
    """One scheduled drain: engine out of placement for [start, end)."""

    engine: int
    start: float
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.engine < 0:
            raise ValueError(f"engine must be >= 0, got {self.engine}")
        if self.start < 0.0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if not self.end > self.start:
            raise ValueError(
                f"drain window must satisfy end > start, got "
                f"[{self.start}, {self.end})"
            )


@dataclass(frozen=True)
class TailToleranceConfig:
    """Which tail-tolerance mechanisms a cluster run enables.

    All-default is inert: no detection, no hedging, no drains — the
    cluster loop must then behave bit-identically to a run without the
    plane.  Enabling *any* mechanism also turns on gray-failure
    detection (``health`` or its defaults), since placement, probing
    and hedging all read the scoreboards.
    """

    health: Optional[HealthConfig] = None
    hedge: Optional[HedgeConfig] = None
    drains: tuple[DrainWindow, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def inert(self) -> bool:
        return (
            self.health is None and self.hedge is None and not self.drains
        )


class TailTolerancePlane:
    """Per-run scoreboards + placement policy + hedge bookkeeping."""

    def __init__(self, config: Optional[TailToleranceConfig] = None):
        self.config = config or TailToleranceConfig()
        self._health_cfg = self.config.health or HealthConfig()
        self._hedge_cfg = self.config.hedge
        self.begin_run()

    @property
    def enabled(self) -> bool:
        """False for the inert default config (loop skips every hook)."""
        return not self.config.inert

    def begin_run(self) -> None:
        """Reset per-run state (scoreboards, windows, decision cursor)."""
        self.boards: dict[int, EngineScoreboard] = {}
        self._latency = LatencyWindow(
            self._hedge_cfg.window if self._hedge_cfg is not None else 1
        )
        # Placement tie-break draws consumed so far: the cursor indexes
        # the per-decision child stream, making every draw a pure
        # function of (seed, tag, decision) — replay-stable.
        self._decision = 0
        # engine -> imperative drain end (math.inf until readmitted).
        self._manual: dict[int, float] = {}

    # ------------------------------------------------------------------ #
    # Scoreboards
    # ------------------------------------------------------------------ #

    def board(self, engine: int) -> EngineScoreboard:
        b = self.boards.get(engine)
        if b is None:
            b = EngineScoreboard(config=self._health_cfg, engine=engine)
            self.boards[engine] = b
        return b

    def state(self, engine: int) -> HealthState:
        return self.board(engine).state

    def score(self, engine: int) -> float:
        return self.board(engine).score

    def transition_log(self) -> list[HealthTransition]:
        """All health transitions across engines, in time order."""
        out: list[HealthTransition] = []
        for b in self.boards.values():
            out.extend(b.transitions)
        out.sort(key=lambda t: (t.t, t.engine))
        return out

    def predict(self, engine: Any, result: Any) -> Optional[float]:
        """Cost-model latency for the layouts one slot executed.

        This is exactly what a COST-mode engine charges for the batch,
        so the observed/predicted ratio of an injected straggler equals
        its multiplier — the detector sees the fault plan's signal
        undiluted.
        """
        cost_model = getattr(engine, "cost_model", None)
        if cost_model is None or result is None:
            return None
        total = 0.0
        for layout in result.layouts:
            total += cost_model.layout_time(layout)
        return total

    def observe(
        self,
        engine: int,
        now: float,
        *,
        ok: bool,
        observed: Optional[float] = None,
        predicted: Optional[float] = None,
        tracer: Any = NO_TRACE,
    ) -> None:
        """Feed one slot outcome into the engine's scoreboard.

        Successful on-time slots (ratio within ``slow_ratio``) also feed
        the hedge latency window — stragglers are excluded from it on
        purpose, so the hedge deadline tracks the *healthy* busy-time
        distribution instead of chasing the tail it exists to cut.
        """
        b = self.board(engine)
        ratio = 1.0
        if ok and observed is not None and predicted is not None:
            ratio = observed / max(predicted, 1e-12)
        credit = self._health_cfg.credit(ok=ok, ratio=ratio)
        changed = b.observe(now, credit)
        if changed and tracer.enabled:
            moved = b.transitions[-1]
            tracer.health(
                now,
                "health",
                engine=engine,
                old=moved.old,
                new=moved.new,
                score=round(moved.score, 6),
                reason=moved.reason,
            )
        if ok and observed is not None and credit >= 1.0:
            self._latency.add(observed)

    # ------------------------------------------------------------------ #
    # Drains
    # ------------------------------------------------------------------ #

    def drain(self, engine: int, *, until: float = math.inf) -> None:
        """Operator drain: stop placing on ``engine`` until ``until``.

        Takes effect at the engine's next placement decision; the
        in-flight slot (if any) always finishes.  An engine drained with
        the default open end stays parked for the remainder of the run
        even if :meth:`readmit` is called mid-run — its idle-heap entry
        was already deferred — so open-ended imperative drains are a
        between-runs operator tool; use :class:`DrainWindow` (or a
        finite ``until``) for in-run rolling restarts.
        """
        if engine < 0:
            raise ValueError(f"engine must be >= 0, got {engine}")
        self._manual[engine] = until

    def readmit(self, engine: int) -> None:
        """Lift an imperative drain (future placement decisions only)."""
        self._manual.pop(engine, None)

    def drained_until(self, engine: int, now: float) -> Optional[float]:
        """End of the engine's active drain at ``now`` (None if none)."""
        until: Optional[float] = None
        manual = self._manual.get(engine)
        if manual is not None and manual > now:
            until = manual
        for w in self.config.drains:
            if w.engine == engine and w.start <= now < w.end:
                until = w.end if until is None else max(until, w.end)
        return until

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #

    def place(
        self,
        entries: Sequence[_Entry],
        now: float,
        *,
        tracer: Any = NO_TRACE,
    ) -> tuple[Optional[_Entry], list[_Entry]]:
        """Pick one engine from the same-timestamp idle group.

        Returns ``(chosen, deferred)``: ``chosen`` is the heap entry to
        dispatch on (None when every entry was deferred) and
        ``deferred`` are entries to push back — unplaceable engines
        retimed strictly later (drain end / probe window), losing
        placeable engines kept at ``now`` so they dispatch on the
        following iterations.

        Selection is argmax health score over placeable engines
        (QUARANTINED probes only dispatch when nothing else is
        placeable); exact ties break via the dedicated placement RNG
        stream, with the candidate list pre-sorted by engine id so the
        draw is order-independent.
        """
        candidates: list[_Entry] = []
        deferred: list[_Entry] = []
        for entry in sorted(entries, key=lambda e: (e[2], e[1])):
            engine = entry[2]
            until = self.drained_until(engine, now)
            if until is not None:
                deferred.append((until, engine, engine))
                continue
            b = self.board(engine)
            if b.state is HealthState.QUARANTINED and now < b.probe_at:
                deferred.append((b.probe_at, engine, engine))
                continue
            candidates.append(entry)
        if not candidates:
            return None, deferred
        regular = [
            e
            for e in candidates
            if self.board(e[2]).state is not HealthState.QUARANTINED
        ]
        pool = regular or candidates
        best = max(self.board(e[2]).score for e in pool)
        tied = [e for e in pool if self.board(e[2]).score == best]
        if len(tied) > 1:
            rng = ensure_rng(
                np.random.SeedSequence(
                    (self.config.seed, _STREAM_HEALTH_PLACEMENT, self._decision)
                )
            )
            self._decision += 1
            chosen = tied[int(rng.integers(len(tied)))]
        else:
            chosen = tied[0]
        deferred.extend(e for e in candidates if e is not chosen)
        b = self.board(chosen[2])
        if b.state is HealthState.QUARANTINED:
            # Dispatching on a quarantined engine *is* the probe.
            b.note_probe_dispatch(now)
            if tracer.enabled:
                tracer.health(
                    now, "probe", engine=chosen[2], score=round(b.score, 6)
                )
        return chosen, deferred

    # ------------------------------------------------------------------ #
    # Hedging
    # ------------------------------------------------------------------ #

    def hedge_deadline(self, engine: int) -> Optional[float]:
        """Busy-time budget beyond which a slot on ``engine`` hedges.

        Computed from pre-dispatch state only — the rolling quantile of
        past healthy busy-times and the engine's *current* scoreboard
        state — so the decision a simulated operator takes at the
        deadline is causal.  None disables hedging for this slot.
        """
        cfg = self._hedge_cfg
        if cfg is None:
            return None
        state = self.board(engine).state
        if state is HealthState.QUARANTINED:
            # Probes measure the engine; hedging one would mask it.
            return None
        if cfg.only_suspect and state is not HealthState.SUSPECT:
            return None
        if len(self._latency) < cfg.min_observations:
            return None
        q = self._latency.quantile(cfg.quantile)
        if q is None:
            return None
        return q * cfg.multiplier

    def hedge_target(
        self, idle: Sequence[_Entry], primary: int, by: float
    ) -> Optional[_Entry]:
        """Best healthy idle engine able to start the duplicate by ``by``.

        Scans the idle heap for HEALTHY, undrained engines (never the
        primary) whose idle-at is within the hedge start; highest score
        wins, ties break on engine id — no RNG here, the duplicate goes
        to the unambiguously best lane.
        """
        best: Optional[tuple[tuple[float, int], _Entry]] = None
        for entry in idle:
            t, _, engine = entry
            if engine == primary or t > by:
                continue
            if self.drained_until(engine, by) is not None:
                continue
            b = self.board(engine)
            if b.state is not HealthState.HEALTHY:
                continue
            key = (-b.score, engine)
            if best is None or key < best[0]:
                best = (key, entry)
        return None if best is None else best[1]

    def note_hedged_latency(self, busy: float) -> None:
        """Feed a hedge winner's busy time into the deadline window."""
        self._latency.add(busy)

    # ------------------------------------------------------------------ #
    # Durability export / apply (see repro.durability.snapshot)
    # ------------------------------------------------------------------ #

    def export_state(self) -> dict[str, Any]:
        """All mutable plane state as plain data.

        Fresh containers for the bounded windows; each board's grow-only
        transition log is a (reference, length) watermark.
        """
        return {
            "boards": {
                e: {
                    "window": list(b.window),
                    "state": b.state.value,
                    "probe_at": b.probe_at,
                    "probe_successes": b._probe_successes,
                    "transitions": mark(b.transitions),
                }
                for e, b in self.boards.items()
            },
            "latency": list(self._latency.values),
            "decision": self._decision,
            "manual": dict(self._manual),
        }

    def apply_state(self, state: dict[str, Any]) -> None:
        """Adopt a thawed :meth:`export_state` (warm-restart path)."""
        self.begin_run()
        for engine, bs in state["boards"].items():
            b = self.board(engine)
            b.window.extend(bs["window"])
            b.state = HealthState(bs["state"])
            b.probe_at = bs["probe_at"]
            b._probe_successes = bs["probe_successes"]
            b.transitions = bs["transitions"]
        for value in state["latency"]:
            self._latency.add(value)
        self._decision = state["decision"]
        self._manual = dict(state["manual"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        states = {
            e: b.state.value for e, b in sorted(self.boards.items())
        }
        return (
            f"TailTolerancePlane(enabled={self.enabled}, states={states}, "
            f"decisions={self._decision})"
        )
