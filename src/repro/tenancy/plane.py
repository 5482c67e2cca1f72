"""The tenancy plane: quota admission, fair share, per-tenant ledgers.

One object — :class:`TenancyPlane` — is threaded through a serving loop
behind its ``tenancy=`` kwarg (``None`` keeps the loop bit-identical to
the tenant-blind baseline).  It owns the three dynamic pieces of the
subsystem:

* **admission** — per-tenant :class:`~repro.tenancy.admission.TokenBucket`
  refilled from sim time, plus a max-in-flight token cap; a rejection
  reason string feeds the loop's quota-reject terminal (and, on the
  server, a typed :class:`~repro.tenancy.admission.QuotaExceeded`);
* **fair share** — :func:`~repro.tenancy.fairshare.fair_select` over
  the loop's existing scheduler whenever more than one tenant is
  waiting (single-tenant decisions fall through to the wrapped
  scheduler untouched, so an all-default registry costs one set-build
  per decision);
* **accounting** — a :class:`~repro.tenancy.ledger.TenantLedgerBook`
  mirroring every global-ledger mutation under the owning tenant, with
  :meth:`finalize` asserting the cross-tenant conservation invariant
  at end of run.

State is export/apply round-trippable for the durability plane
(Snapshot + journal commits), mirroring the health plane.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.rng import ensure_rng
from repro.scheduling.base import Scheduler, SchedulingDecision
from repro.tenancy.admission import TokenBucket
from repro.tenancy.fairshare import (
    _STREAM_TENANT_FAIRNESS,
    entitlements,
    fair_select,
    settle_deficits,
)
from repro.tenancy.ledger import TenantLedgerBook
from repro.tenancy.registry import DEFAULT_TENANT, TenantRegistry
from repro.types import Request

__all__ = ["TenancyPlane", "IterationShare"]


class IterationShare:
    """Token allowances for one continuous-batching admission pass.

    The continuous loop admits into a per-iteration token budget rather
    than discrete rows, so fair share there partitions that budget by
    weight×deficit and the loop consults :meth:`fits` / :meth:`charge`
    per candidate.  :meth:`settle` carries unspent entitlement forward.
    """

    def __init__(
        self,
        plane: "TenancyPlane",
        groups: Mapping[str, list[Request]],
        budget: int,
    ) -> None:
        self._plane = plane
        self._budget = budget
        weights = {
            t: plane.registry.effective_weight(t) for t in groups
        }
        self._ent = entitlements(groups, weights, plane._deficits, budget)
        self._used: dict[str, int] = {t: 0 for t in groups}

    def fits(self, request: Request) -> bool:
        t = self._plane.key(request)
        remaining = self._ent.get(t, 0.0) - self._used.get(t, 0)
        return request.length <= remaining + 1e-9

    def charge(self, request: Request) -> None:
        t = self._plane.key(request)
        self._used[t] = self._used.get(t, 0) + request.length

    def settle(self) -> None:
        settle_deficits(
            self._plane._deficits, self._ent, self._used, self._budget
        )


class TenancyPlane:
    """Multi-tenant QoS plane for the serving loops (see module doc)."""

    def __init__(
        self,
        registry: Optional[TenantRegistry] = None,
        *,
        seed: int = 0,
    ) -> None:
        self.registry = registry if registry is not None else TenantRegistry()
        self.seed = seed
        # True when no class in the registry carries a rate or an
        # in-flight cap: admit() can never refuse, so the loops skip
        # the per-request dispatch entirely.
        classes = list(self.registry._classes.values()) + [
            self.registry.default_class
        ]
        self.passive_admission = all(
            c.rate is None and c.max_in_flight is None for c in classes
        )
        self.book = TenantLedgerBook()
        self._buckets: dict[str, TokenBucket] = {}
        self._in_flight: dict[str, int] = {}
        self._charged: dict[int, tuple[str, int]] = {}
        self._deficits: dict[str, float] = {}
        self._decision = 0
        # Tenants whose SLO class has neither a rate nor an in-flight
        # cap: admission is a no-op for them, cached to one set probe.
        self._unconstrained: set[Optional[str]] = set()
        # One-entry ledger cache for the hot hooks (hit rate ~100% in
        # single-tenant runs); invalidated whenever the book's ledger
        # objects can change identity.
        self._hot_tenant: Optional[str] = None
        self._hot_ledger: Any = None

    @property
    def enabled(self) -> bool:
        return True

    def begin_run(self) -> None:
        """Reset all run-scoped state (ledgers, buckets, deficits)."""
        self.book.reset()
        self._buckets.clear()
        self._in_flight.clear()
        self._charged.clear()
        self._deficits.clear()
        self._decision = 0
        self._unconstrained.clear()
        self._hot_tenant = None
        self._hot_ledger = None

    # ------------------------------------------------------------------
    # identity

    def key(self, request: Request) -> str:
        """Ledger key of *request*'s tenant."""
        return self.registry.tenant_of(request)

    # ------------------------------------------------------------------
    # quota admission

    def admit(self, request: Request, now: float) -> Optional[str]:
        """Try to admit *request* at sim time *now*.

        Returns ``None`` on success (the request's tokens are charged
        against the tenant's in-flight cap until a terminal releases
        them) or a human-readable rejection reason.
        """
        if request.tenant in self._unconstrained:
            return None
        cls = self.registry.tenant_class(request.tenant)
        if cls.max_in_flight is None and cls.rate is None:
            # Unconstrained class: nothing to charge, nothing to refuse.
            self._unconstrained.add(request.tenant)
            return None
        t = self.key(request)
        if cls.max_in_flight is not None:
            if (
                self._in_flight.get(t, 0) + request.length
                > cls.max_in_flight
            ):
                return f"in-flight cap {cls.max_in_flight} tokens"
        if cls.rate is not None:
            bucket = self._buckets.get(t)
            if bucket is None:
                bucket = self._buckets[t] = TokenBucket(
                    cls.rate, cls.bucket_burst
                )
            if not bucket.try_take(request.length, now):
                return (
                    f"token bucket empty "
                    f"(rate {cls.rate:g}/s, burst {cls.bucket_burst:g})"
                )
        self._in_flight[t] = self._in_flight.get(t, 0) + request.length
        self._charged[request.request_id] = (t, request.length)
        return None

    def _release(self, requests: Iterable[Request]) -> None:
        if not self._charged:
            return
        for r in requests:
            rec = self._charged.pop(r.request_id, None)
            if rec is not None:
                self._in_flight[rec[0]] -= rec[1]

    # ------------------------------------------------------------------
    # ledger hooks (mirror every global ServingMetrics mutation)

    def _ledger_for(self, tenant: Optional[str]):
        t = tenant if tenant is not None else DEFAULT_TENANT
        led = self.book.ledgers.get(t)
        if led is None:
            led = self.book.ledger(t)
        self._hot_tenant = tenant
        self._hot_ledger = led
        return led

    def arrive(self, request: Request) -> None:
        t = request.tenant
        led = (
            self._hot_ledger
            if t == self._hot_tenant and self._hot_ledger is not None
            else self._ledger_for(t)
        )
        led.arrived += 1

    def served(self, requests: Sequence[Request], finish: float) -> None:
        hot_t, hot_led = self._hot_tenant, self._hot_ledger
        for r in requests:
            t = r.tenant
            if t == hot_t and hot_led is not None:
                led = hot_led
            else:
                led = self._ledger_for(t)
                hot_t, hot_led = t, led
            led.served += 1
            led.served_tokens += r.length
            if finish <= r.deadline:
                led.on_time += 1
                led.goodput_utility += r.utility
        self._release(requests)

    def expired(self, requests: Sequence[Request]) -> None:
        hot_t, hot_led = self._hot_tenant, self._hot_ledger
        for r in requests:
            t = r.tenant
            if t == hot_t and hot_led is not None:
                led = hot_led
            else:
                led = self._ledger_for(t)
                hot_t, hot_led = t, led
            led.expired += 1
        self._release(requests)

    def rejected(
        self,
        requests: Sequence[Request],
        *,
        quota: bool = False,
        now: float = 0.0,
        tracer: Any = None,
    ) -> None:
        for r in requests:
            led = self.book.ledger(self.key(r))
            led.rejected += 1
            if quota:
                led.quota_rejected += 1
                if tracer is not None:
                    tracer.tenant(
                        now,
                        "quota",
                        tenant=self.key(r),
                        request_id=r.request_id,
                        tokens=r.length,
                    )
        self._release(requests)

    def shed(self, requests: Sequence[Request]) -> None:
        # Sheds are rejections in the global ledger (shed ⊂ rejected),
        # so the tenant ledger mirrors both counters.
        for r in requests:
            led = self.book.ledger(self.key(r))
            led.rejected += 1
            led.shed += 1
        self._release(requests)

    def abandoned(self, requests: Sequence[Request]) -> None:
        for r in requests:
            self.book.ledger(self.key(r)).abandoned += 1
        self._release(requests)

    def finalize(self, metrics: Any) -> None:
        """Assert the per-tenant vs global conservation invariant.

        The O(served) on-time/goodput recompute only pays off when
        there is a cross-tenant split to get wrong; single-ledger runs
        keep the O(1) counter conservation check.
        """
        self.book.assert_matches(metrics, deep=len(self.book.ledgers) > 1)

    # ------------------------------------------------------------------
    # fair share

    def select(
        self,
        scheduler: Scheduler,
        waiting: Sequence[Request],
        now: float,
        *,
        tracer: Any = None,
    ) -> SchedulingDecision:
        """Scheduling decision with cross-tenant fair sharing.

        With zero or one tenant waiting this is *exactly* the wrapped
        scheduler's decision — same object, same fast path — so
        single-tenant runs pay only a set-build per decision (and runs
        whose whole history has one tenant skip even that: every
        request passes :meth:`arrive` before it can wait, so the
        ledger book's keyset bounds the tenants a decision can see).
        """
        groups = self._groups(waiting)
        if groups is None:
            return scheduler.select(waiting, now)
        weights = {t: self.registry.effective_weight(t) for t in groups}
        rng = ensure_rng(
            np.random.SeedSequence(
                (self.seed, _STREAM_TENANT_FAIRNESS, self._decision)
            )
        )
        self._decision += 1
        decision = fair_select(
            scheduler,
            groups,
            now,
            weights=weights,
            deficits=self._deficits,
            rng=rng,
        )
        if tracer is not None and decision.rows:
            tracer.tenant(
                now,
                "share",
                rows=decision.info["rows_by_tenant"],
                tokens=decision.info["tokens_by_tenant"],
            )
        return decision

    def iteration_share(
        self, waiting: Sequence[Request], budget: int
    ) -> Optional[IterationShare]:
        """Fair-share allowances for a continuous admission pass.

        ``None`` when at most one tenant is waiting — the loop then
        runs its baseline admission untouched.
        """
        groups = self._groups(waiting)
        return None if groups is None else IterationShare(self, groups, budget)

    def _groups(
        self, waiting: Sequence[Request]
    ) -> Optional[dict[str, list[Request]]]:
        """*waiting* by tenant key; None when at most one tenant waits."""
        if len(self.book.ledgers) <= 1 or len({r.tenant for r in waiting}) <= 1:
            return None
        groups: dict[str, list[Request]] = {}
        for r in waiting:
            groups.setdefault(self.key(r), []).append(r)
        return groups

    # ------------------------------------------------------------------
    # durability (Snapshot / journal round trip)

    def export_state(self) -> dict[str, Any]:
        """Serializable run state (fresh containers, JSON-safe)."""
        return {
            "ledgers": self.book.export_state(),
            "buckets": {
                t: b.export_state() for t, b in self._buckets.items()
            },
            "in_flight": dict(self._in_flight),
            "charged": [
                [rid, t, tokens]
                for rid, (t, tokens) in self._charged.items()
            ],
            "deficits": dict(self._deficits),
            "decision": self._decision,
        }

    def apply_state(self, state: Optional[dict[str, Any]]) -> None:
        """Restore :meth:`export_state` output (warm-restart path)."""
        self.begin_run()
        if state is None:
            return
        self.book.apply_state(state["ledgers"])
        for t, bstate in state["buckets"].items():
            cls = self.registry.tenant_class(t)
            if cls.rate is None:
                continue
            bucket = TokenBucket(cls.rate, cls.bucket_burst)
            bucket.apply_state(bstate)
            self._buckets[t] = bucket
        self._in_flight = {
            t: int(v) for t, v in state["in_flight"].items()
        }
        self._charged = {
            int(rid): (t, int(tokens))
            for rid, t, tokens in state["charged"]
        }
        self._deficits = {
            t: float(v) for t, v in state["deficits"].items()
        }
        self._decision = int(state["decision"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TenancyPlane(tenants={len(self.registry.tenants)}, "
            f"ledgers={len(self.book.ledgers)}, "
            f"decisions={self._decision})"
        )
