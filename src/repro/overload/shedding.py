"""Load-shedding policies: who leaves the queue when pressure hits.

A policy orders the waiting set and victims are taken from the front of
that order until the queue is back under both its count and token
limits.  All policies are deterministic: ties break on ``request_id``
and :class:`RandomShed` derives each decision from an independent
``(seed, stream-domain, decision_index)`` stream (same scheme as
:class:`~repro.faults.plan.FaultPlan`, under a different domain tag so
the two never alias), so identical runs shed identical victims.

Which policy wins depends on the objective: *lowest-utility-first*
protects Eq. 9's Σ v_n (utility is 1/length, so it sheds the longest
requests — also the biggest queue-token consumers);
*latest-deadline-first* protects near-deadline work by shedding the
requests that could in principle wait the longest (under sustained
overload "could wait" means "will expire waiting");  *random* is the
unbiased baseline the other two must beat.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro.overload.backpressure import QueuePressure
from repro.rng import ensure_rng
from repro.types import Request

__all__ = [
    "SheddingPolicy",
    "LowestUtilityFirst",
    "LatestDeadlineFirst",
    "RandomShed",
    "TenantWeightedShed",
    "make_shedder",
]

# Stream-domain tag mixed into every SeedSequence key below, distinct
# from the FaultPlan tag, so a shedder and a fault plan sharing one
# experiment seed can never consume the same stream (TCB011,
# tests/test_static_invariants.py).
_STREAM_RANDOM_SHED = 0x5D


class SheddingPolicy(abc.ABC):
    """Order the waiting set; victims are shed front-first."""

    name: str = "base"

    def reset(self) -> None:
        """Forget per-run state (called by the loops at run start)."""

    def export_state(self) -> Optional[int]:
        """Per-run state for a durability checkpoint (None: stateless)."""
        return None

    def apply_state(self, state: Optional[int]) -> None:
        """Restore :meth:`export_state` output."""

    @abc.abstractmethod
    def order(
        self, waiting: Sequence[Request], now: float
    ) -> list[Request]:
        """Waiting requests, most-sheddable first."""

    def select_victims(
        self,
        waiting: Sequence[Request],
        pressure: QueuePressure,
        now: float,
    ) -> list[Request]:
        """Victims freeing enough count+token capacity to clear *pressure*."""
        need_requests = pressure.excess_requests
        need_tokens = pressure.excess_tokens
        if need_requests <= 0 and need_tokens <= 0:
            return []
        victims: list[Request] = []
        for r in self.order(waiting, now):
            if need_requests <= 0 and need_tokens <= 0:
                break
            victims.append(r)
            need_requests -= 1
            need_tokens -= r.length
        return victims


class LowestUtilityFirst(SheddingPolicy):
    """Shed the lowest Σ v_n contribution first (the longest requests)."""

    name = "lowest-utility"

    def order(
        self, waiting: Sequence[Request], now: float
    ) -> list[Request]:
        return sorted(waiting, key=lambda r: (r.utility, r.request_id))


class LatestDeadlineFirst(SheddingPolicy):
    """Shed the most-slack requests first, protecting urgent work."""

    name = "latest-deadline"

    def order(
        self, waiting: Sequence[Request], now: float
    ) -> list[Request]:
        return sorted(waiting, key=lambda r: (-r.deadline, r.request_id))


class RandomShed(SheddingPolicy):
    """Uniform-random victims — the baseline the informed policies beat.

    Each shedding decision draws a fresh permutation from an
    independent ``(seed, stream-domain, decision_index)`` child stream,
    so replaying a run replays its sheds exactly, regardless of how
    many decisions earlier runs consumed (``reset`` rewinds the index).
    """

    name = "random"

    def __init__(self, seed: int = 0):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self._decision = 0

    def reset(self) -> None:
        self._decision = 0

    def export_state(self) -> int:
        return self._decision

    def apply_state(self, state: Optional[int]) -> None:
        # A restored run replays the same per-decision streams.
        if state is not None:
            self._decision = state

    def order(
        self, waiting: Sequence[Request], now: float
    ) -> list[Request]:
        rng = ensure_rng(
            np.random.SeedSequence(
                (self.seed, _STREAM_RANDOM_SHED, self._decision)
            )
        )
        self._decision += 1
        # Sort first so the permutation is over a canonical order — the
        # caller's iteration order cannot perturb the draw.
        ordered = sorted(waiting, key=lambda r: r.request_id)
        perm = rng.permutation(len(ordered))
        return [ordered[i] for i in perm]


class TenantWeightedShed(SheddingPolicy):
    """Shed low-weight tenants' requests first.

    Requests carry their tenant's SLO-class weight (stamped by the
    workload generator or :meth:`TCBServer.submit`), so ordering by
    ascending weight sheds a batch tenant's backlog before touching a
    premium tenant's — within one weight tier the lowest-utility
    (longest) requests go first, same rationale as
    :class:`LowestUtilityFirst`.
    """

    name = "tenant-weighted"

    def order(
        self, waiting: Sequence[Request], now: float
    ) -> list[Request]:
        return sorted(
            waiting, key=lambda r: (r.weight, r.utility, r.request_id)
        )


_POLICIES = {
    LowestUtilityFirst.name: LowestUtilityFirst,
    LatestDeadlineFirst.name: LatestDeadlineFirst,
    RandomShed.name: RandomShed,
    TenantWeightedShed.name: TenantWeightedShed,
}


def make_shedder(name: str, *, seed: int = 0) -> SheddingPolicy:
    """Instantiate a shedding policy by name (CLI / experiment plumbing)."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown shedding policy {name!r}; expected one of "
            f"{sorted(_POLICIES)}"
        )
    return cls(seed=seed) if cls is RandomShed else cls()
