"""Serving metrics: utility, throughput, latency, deadline misses.

Matches the quantities the paper reports: *total utility* (Σ 1/l over
requests served by their deadline — Figs. 9, 15), *serving throughput*
(responses/second — Figs. 10–12) and the DAS overhead ratio (Fig. 16).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from repro.types import Request
from repro.watermark import mark

__all__ = ["ServingMetrics", "Terminals"]


class Terminals(NamedTuple):
    """A run's terminal ledger: the lists :class:`ServingMetrics` ends with."""

    served: Sequence[Request]
    expired: Sequence[Request]
    rejected: Sequence[Request]
    abandoned: Sequence[Request]
    finish_times: dict[int, tuple[float, float]]


@dataclass
class ServingMetrics:
    horizon: float = 0.0
    served: list[Request] = field(default_factory=list)
    expired: list[Request] = field(default_factory=list)
    # Shed at arrival by the admission controller (never queued).
    rejected: list[Request] = field(default_factory=list)
    # Given up by the fault-recovery retry policy (requeue infeasible).
    abandoned: list[Request] = field(default_factory=list)
    # request_id -> (arrival, finish) for latency accounting.
    finish_times: dict[int, tuple[float, float]] = field(default_factory=dict)
    total_engine_time: float = 0.0
    total_scheduler_time: float = 0.0
    num_batches: int = 0
    useful_tokens: int = 0
    padded_tokens: int = 0
    # ---- fault-tolerance accounting ---------------------------------- #
    # Total requests the workload offered (conservation denominator).
    arrived: int = 0
    # Requests requeued after a failed batch / crash / OOM split.
    retries: int = 0
    # Batches that consumed engine time but produced no responses.
    failed_batches: int = 0
    # Total simulated seconds engines spent in crash recovery.
    downtime: float = 0.0
    # ---- overload accounting ----------------------------------------- #
    # How many of `rejected` were shed *after* queueing (load shedding),
    # as opposed to refused at arrival by the admission controller.
    shed: int = 0
    # ---- tail-tolerance accounting ----------------------------------- #
    # Duplicate batches issued past a hedge deadline.
    hedges: int = 0
    # Hedges whose duplicate finished first (primary cancelled).
    hedge_wins: int = 0
    # Engine seconds consumed by hedge losers / failed duplicates —
    # time spent buying the tail down, never producing served output.
    hedge_wasted: float = 0.0

    # ------------------------------------------------------------------ #

    @property
    def total_utility(self) -> float:
        """Objective of Eq. 9: Σ v_n over requests served in time."""
        return float(sum(r.utility for r in self.served))

    @property
    def num_served(self) -> int:
        return len(self.served)

    @property
    def num_expired(self) -> int:
        return len(self.expired)

    @property
    def num_rejected(self) -> int:
        return len(self.rejected)

    @property
    def num_abandoned(self) -> int:
        return len(self.abandoned)

    @property
    def throughput(self) -> float:
        """Responses per second over the simulated horizon."""
        span = max(self.horizon, 1e-12)
        return self.num_served / span

    @property
    def offered_load(self) -> int:
        return self.num_served + self.num_expired + self.num_abandoned

    @property
    def miss_rate(self) -> float:
        total = self.offered_load
        misses = self.num_expired + self.num_abandoned
        return 0.0 if total == 0 else misses / total

    @property
    def conservation_ok(self) -> bool:
        """Every arrived request ends in exactly one terminal bucket."""
        accounted = (
            self.num_served
            + self.num_expired
            + self.num_rejected
            + self.num_abandoned
        )
        return accounted == self.arrived

    def assert_conservation(self) -> None:
        """Raise if ``served + expired + rejected + abandoned != arrived``."""
        if not self.conservation_ok:
            raise AssertionError(
                f"request conservation violated: served={self.num_served} "
                f"+ expired={self.num_expired} + rejected={self.num_rejected} "
                f"+ abandoned={self.num_abandoned} != arrived={self.arrived}"
            )

    @property
    def num_on_time(self) -> int:
        """Served responses that finished by their deadline."""
        count = 0
        for r in self.served:
            window = self.finish_times.get(r.request_id)
            if window is None or window[1] <= r.deadline:
                count += 1
        return count

    @property
    def goodput_utility(self) -> float:
        """Σ v_n over *on-time* responses — the overload-plane objective.

        Under overload a FIFO policy keeps "serving" requests whose
        deadlines already passed; ``total_utility`` hides that collapse,
        this does not.
        """
        total = 0.0
        for r in self.served:
            window = self.finish_times.get(r.request_id)
            if window is None or window[1] <= r.deadline:
                total += r.utility
        return float(total)

    @property
    def mean_latency(self) -> float:
        if not self.finish_times:
            return 0.0
        lat = [f - a for a, f in self.finish_times.values()]
        return float(np.mean(lat))

    def latency_percentile(self, p: float) -> float:
        if not self.finish_times:
            return 0.0
        lat = [f - a for a, f in self.finish_times.values()]
        return float(np.percentile(lat, p))

    @property
    def padding_ratio(self) -> float:
        total = self.useful_tokens + self.padded_tokens
        return 0.0 if total == 0 else self.padded_tokens / total

    @property
    def scheduler_overhead_ratio(self) -> float:
        """Fig. 16's quantity: scheduler time / engine time."""
        if self.total_engine_time <= 0:
            return 0.0
        return self.total_scheduler_time / self.total_engine_time

    # ------------------------------------------------------------------ #
    # Durability export / apply (see repro.durability.snapshot)
    # ------------------------------------------------------------------ #

    def export_state(self) -> dict:
        """Every field by name: counters as they are, ledgers watermarked.

        The terminal ledgers and ``finish_times`` only ever grow (one
        entry per terminal, never rewritten), so each is exported as a
        (reference, length) watermark instead of a copy.
        """
        return {
            name: mark(value) if isinstance(value, (list, dict)) else value
            for name, value in vars(self).items()
        }

    def apply_state(self, state: dict) -> None:
        """Adopt a thawed :meth:`export_state` (fields are rebound)."""
        for name, value in state.items():
            setattr(self, name, value)

    def summary(self) -> dict[str, float]:
        """Flat dict convenient for bench tables."""
        return {
            "utility": self.total_utility,
            "served": float(self.num_served),
            "expired": float(self.num_expired),
            "rejected": float(self.num_rejected),
            "abandoned": float(self.num_abandoned),
            "shed": float(self.shed),
            "on_time": float(self.num_on_time),
            "goodput": self.goodput_utility,
            "retries": float(self.retries),
            "failed_batches": float(self.failed_batches),
            "downtime": self.downtime,
            "hedges": float(self.hedges),
            "hedge_wins": float(self.hedge_wins),
            "hedge_wasted": self.hedge_wasted,
            "throughput": self.throughput,
            "miss_rate": self.miss_rate,
            "mean_latency": self.mean_latency,
            "padding_ratio": self.padding_ratio,
            "sched_overhead": self.scheduler_overhead_ratio,
        }
