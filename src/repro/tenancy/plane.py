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
* **accounting** — :attr:`TenancyPlane.book`, a
  :class:`~repro.tenancy.ledger.TenantLedgerBook` built on read by
  grouping the run's global terminal ledger under each tenant, plus the
  three counters only this plane sees (arrivals, quota refusals,
  sheds); :meth:`finalize` checks those against the terminals at end of
  run.

State is export/apply round-trippable for the durability plane's
snapshots, mirroring the health plane.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any, Callable, Container, Iterable, Mapping, Optional, Sequence

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
from repro.tenancy.ledger import TenantLedger, TenantLedgerBook
from repro.tenancy.registry import DEFAULT_TENANT, TenantClass, TenantRegistry
from repro.types import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.metrics import Terminals

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
        # in-flight cap: refusals() can never refuse, so the loops skip
        # it entirely.
        classes = list(self.registry._classes.values()) + [
            self.registry.default_class
        ]
        self.passive_admission = all(
            c.rate is None and c.max_in_flight is None for c in classes
        )
        # The terminal ledger of the run this plane serves (set by the
        # serving lifecycle); the book groups it on read.
        self._terminals: Optional[Callable[[], "Terminals"]] = None
        # What the global ledger cannot tell apart by tenant.
        self._arrived: Counter[str] = Counter()
        self._quota_rejected: Counter[str] = Counter()
        self._shed: Counter[str] = Counter()
        self._buckets: dict[str, TokenBucket] = {}
        self._in_flight: dict[str, int] = {}
        self._charged: dict[int, tuple[str, int]] = {}
        self._deficits: dict[str, float] = {}
        self._decision = 0
        # Tenants whose SLO class has neither a rate nor an in-flight
        # cap: admission is a no-op for them, cached to one set probe
        # per arrival in refusals().
        self._unconstrained: set[Optional[str]] = set()

    def begin_run(self) -> None:
        """Reset all run-scoped state (counters, buckets, deficits)."""
        self._arrived.clear()
        self._quota_rejected.clear()
        self._shed.clear()
        self._buckets.clear()
        self._in_flight.clear()
        self._charged.clear()
        self._deficits.clear()
        self._decision = 0
        self._unconstrained.clear()

    def bind(self, terminals: Callable[[], "Terminals"]) -> None:
        """Read the run's terminal ledger from *terminals()* from now on."""
        self._terminals = terminals

    # ------------------------------------------------------------------
    # identity

    def key(self, request: Request) -> str:
        """Ledger key of *request*'s tenant."""
        return self.registry.tenant_of(request)

    # ------------------------------------------------------------------
    # quota admission

    def refusals(
        self, arrivals: Sequence[Request], skip: Container[int] = ()
    ) -> list[tuple[int, str]]:
        """Quota verdicts over a range of arrivals: the refused positions.

        Each request is admitted at its own arrival time, tenant by
        tenant in arrival order; an admitted one's tokens are charged
        against the tenant's in-flight cap until :meth:`release`.  A
        refusal comes with a human-readable reason and is counted as the
        tenant's quota refusal.  Positions in *skip* (an earlier gate
        refused them) and the requests of quota-free tenants are passed
        over without a call.
        """
        refused = []
        unconstrained = self._unconstrained
        for k, r in enumerate(arrivals):
            if r.tenant in unconstrained or k in skip:
                continue
            reason = self._admit(r)
            if reason is not None:
                refused.append((k, reason))
        return refused

    def _admit(self, request: Request) -> Optional[str]:
        cls = self.registry.tenant_class(request.tenant)
        if cls.max_in_flight is None and cls.rate is None:
            # Unconstrained class: nothing to charge, nothing to refuse.
            self._unconstrained.add(request.tenant)
            return None
        t = self.key(request)
        refusal = None
        if (
            cls.max_in_flight is not None
            and self._in_flight.get(t, 0) + request.length > cls.max_in_flight
        ):
            refusal = f"in-flight cap {cls.max_in_flight} tokens"
        elif cls.rate is not None and not self._bucket(t, cls).try_take(
            request.length, request.arrival
        ):
            refusal = (
                f"token bucket empty "
                f"(rate {cls.rate:g}/s, burst {cls.bucket_burst:g})"
            )
        if refusal is not None:
            self._quota_rejected[t] += 1
            return refusal
        self._in_flight[t] = self._in_flight.get(t, 0) + request.length
        self._charged[request.request_id] = (t, request.length)
        return None

    def _bucket(self, tenant: str, cls: TenantClass) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(cls.rate, cls.bucket_burst)
        return bucket

    def charge(self, requests: Sequence[Request]) -> None:
        """Charge *requests* as their admission did, refusing none.

        For a restart's recovered submits: each was admitted before the
        crash, after the snapshot the plane was restored from.  Taken
        in submit order, every bucket sees the same takes again.
        """
        for r in requests:
            cls = self.registry.tenant_class(r.tenant)
            if cls.max_in_flight is None and cls.rate is None:
                continue
            t = self.key(r)
            if cls.rate is not None:
                self._bucket(t, cls).try_take(r.length, r.arrival)
            self._in_flight[t] = self._in_flight.get(t, 0) + r.length
            self._charged[r.request_id] = (t, r.length)

    def release(self, requests: Iterable[Request]) -> None:
        """*requests* left the queue: give back their in-flight charges."""
        if not self._charged:
            return
        for r in requests:
            rec = self._charged.pop(r.request_id, None)
            if rec is not None:
                self._in_flight[rec[0]] -= rec[1]

    # ------------------------------------------------------------------
    # accounting

    def arrive(self, requests: Sequence[Request]) -> None:
        """*requests* arrived: one count per tenant, in one pass."""
        tenants = [r.tenant for r in requests]
        if None in tenants:
            tenants = [DEFAULT_TENANT if t is None else t for t in tenants]
        self._arrived.update(tenants)

    def shed(self, requests: Sequence[Request]) -> None:
        # Sheds are rejections in the global ledger (shed ⊂ rejected);
        # only this count tells them apart by tenant.
        for r in requests:
            self._shed[self.key(r)] += 1

    @property
    def book(self) -> TenantLedgerBook:
        """Per-tenant ledgers: the run's terminal ledger grouped by tenant."""
        book = TenantLedgerBook(
            {t: TenantLedger(arrived=n) for t, n in self._arrived.items()}
        )
        if self._terminals is not None:
            book.fold(self._terminals())
        for t, n in self._quota_rejected.items():
            book.ledger(t).quota_rejected = n
        for t, n in self._shed.items():
            book.ledger(t).shed = n
        return book

    def finalize(self, metrics: Any) -> None:
        """Assert the per-tenant conservation invariant at end of run."""
        self.book.assert_matches(metrics)

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
        arrivals' keyset bounds the tenants a decision can see).
        """
        groups = self._groups(waiting)
        if groups is None:
            return scheduler.select(waiting, now)
        weights = {t: self.registry.effective_weight(t) for t in groups}
        seed, decision_no = self.seed, self._decision
        self._decision += 1
        decision = fair_select(
            scheduler,
            groups,
            now,
            weights=weights,
            deficits=self._deficits,
            # Built only if an entitlement tie needs a draw.
            rng=lambda: ensure_rng(
                np.random.SeedSequence((seed, _STREAM_TENANT_FAIRNESS, decision_no))
            ),
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
        """*waiting* by tenant key; None when at most one tenant waits.

        One pass, by ``Request.tenant``; the untagged requests' group is
        then renamed to :data:`DEFAULT_TENANT`.
        """
        if len(self._arrived) <= 1:
            return None
        by_tenant: dict[Optional[str], list[Request]] = {}
        for r in waiting:
            group = by_tenant.get(r.tenant)
            if group is None:
                by_tenant[r.tenant] = [r]
            else:
                group.append(r)
        if len(by_tenant) <= 1:
            return None
        if None not in by_tenant:
            return by_tenant  # type: ignore[return-value]
        if DEFAULT_TENANT not in by_tenant:
            return {
                DEFAULT_TENANT if t is None else t: group
                for t, group in by_tenant.items()
            }
        # Untagged requests and the tenant named like their key share one
        # group, in waiting order.
        groups: dict[str, list[Request]] = {}
        for r in waiting:
            groups.setdefault(self.key(r), []).append(r)
        return groups

    # ------------------------------------------------------------------
    # durability (Snapshot round trip)

    def export_state(self) -> dict[str, Any]:
        """Serializable run state (fresh containers, JSON-safe)."""
        return {
            "arrived": dict(self._arrived),
            "quota_rejected": dict(self._quota_rejected),
            "shed": dict(self._shed),
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
        self._arrived.update(state["arrived"])
        self._quota_rejected.update(state["quota_rejected"])
        self._shed.update(state["shed"])
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
            f"arrived={len(self._arrived)}, "
            f"decisions={self._decision})"
        )
