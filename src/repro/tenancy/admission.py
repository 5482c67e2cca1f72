"""Deterministic per-tenant token-bucket admission on the sim clock.

Refill is driven purely by the simulated ``now`` handed in by the
serving loop — no wall-clock reads (TCB003) and no hidden RNG (TCB002, TCB011):
two runs over the same workload see bit-identical bucket levels.

A rejection surfaces as :class:`QuotaExceeded`, a typed subclass of the
PR 4 :class:`~repro.overload.backpressure.BackpressureError`, so server
clients that already catch backpressure handle quota rejections for
free while still being able to tell the two apart.
"""

from __future__ import annotations

from typing import Optional

from repro.overload.backpressure import BackpressureError

__all__ = ["QuotaExceeded", "TokenBucket"]


class QuotaExceeded(BackpressureError):
    """A tenant's token bucket (or in-flight cap) rejected a request.

    Subclasses :class:`BackpressureError` so it flows through the same
    client-side handling as queue-full / degraded-mode rejections;
    ``tenant`` and ``quota_reason`` carry the tenancy-specific detail.
    """

    def __init__(self, tenant: str, quota_reason: str) -> None:
        super().__init__(f"quota: tenant {tenant!r} {quota_reason}")
        self.tenant = tenant
        self.quota_reason = quota_reason


class TokenBucket:
    """One tenant's token bucket, refilled lazily from sim time.

    ``level(t) = min(burst, level + rate * (t - last))`` — the classic
    lazy-refill form, evaluated only when the bucket is consulted so
    idle tenants cost nothing per tick.
    """

    __slots__ = ("rate", "burst", "level", "last")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.level = float(burst)  # buckets start full
        self.last = 0.0

    def _refill(self, now: float) -> None:
        if now > self.last:
            self.level = min(
                self.burst, self.level + self.rate * (now - self.last)
            )
            self.last = now

    def try_take(self, tokens: int, now: float) -> bool:
        """Consume *tokens* if the bucket holds them; True on success."""
        self._refill(now)
        # Small epsilon forgives float drift from repeated refills so a
        # tenant arriving exactly at its sustained rate is never starved
        # by representation error.
        if tokens <= self.level + 1e-9:
            self.level -= tokens
            return True
        return False

    def export_state(self) -> dict:
        return {"level": self.level, "last": self.last}

    def apply_state(self, state: Optional[dict]) -> None:
        if state is None:
            return
        self.level = float(state["level"])
        self.last = float(state["last"])
