"""Per-tenant SLO ledgers: a grouping of the one global ledger.

A :class:`TenantLedgerBook` is built by :meth:`TenantLedgerBook.fold`
over the run's terminal lists (served, expired, rejected, abandoned and
the finish times), so *summing a terminal counter across tenants equals
the global ledger* by construction, and a restored run's tenant ledgers
equal the live ones whenever its global ledger does.  What the grouping
cannot give — arrivals, shed victims and quota refusals per tenant — the
tenancy plane counts where it sees them, and
:meth:`TenantLedgerBook.assert_matches` checks those against the
terminals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.tenancy.registry import TenantRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.metrics import ServingMetrics, Terminals

__all__ = ["TenantLedger", "TenantLedgerBook"]


@dataclass
class TenantLedger:
    """Terminal accounting for one tenant.

    ``quota_rejected`` counts the subset of ``rejected`` dropped by the
    tenant's own token bucket / in-flight cap (mirroring how the global
    ledger counts ``shed`` inside ``rejected``).
    """

    arrived: int = 0
    served: int = 0
    expired: int = 0
    rejected: int = 0
    abandoned: int = 0
    shed: int = 0
    quota_rejected: int = 0
    on_time: int = 0
    served_tokens: int = 0
    goodput_utility: float = 0.0

    def to_dict(self) -> dict:
        return {
            "arrived": self.arrived,
            "served": self.served,
            "expired": self.expired,
            "rejected": self.rejected,
            "abandoned": self.abandoned,
            "shed": self.shed,
            "quota_rejected": self.quota_rejected,
            "on_time": self.on_time,
            "served_tokens": self.served_tokens,
            "goodput_utility": self.goodput_utility,
        }

    @property
    def on_time_rate(self) -> float:
        return self.on_time / self.served if self.served else 0.0

    @property
    def conservation_ok(self) -> bool:
        return (
            self.served + self.expired + self.rejected + self.abandoned
            == self.arrived
        )


@dataclass
class TenantLedgerBook:
    """All tenants' ledgers plus the per-tenant conservation check."""

    ledgers: dict[str, TenantLedger] = field(default_factory=dict)

    def ledger(self, tenant: str) -> TenantLedger:
        led = self.ledgers.get(tenant)
        if led is None:
            led = self.ledgers[tenant] = TenantLedger()
        return led

    def fold(self, terminals: "Terminals") -> "TenantLedgerBook":
        """Group *terminals* by tenant into this book; returns the book.

        A served request is on time when it finished by its deadline;
        goodput sums in served order.
        """
        ledger, tenant_of = self.ledger, TenantRegistry.tenant_of
        finish_times = terminals.finish_times
        for r in terminals.served:
            led = ledger(tenant_of(r))
            led.served += 1
            led.served_tokens += r.length
            window = finish_times.get(r.request_id)
            if window is None or window[1] <= r.deadline:
                led.on_time += 1
                led.goodput_utility += r.utility
        for name in ("expired", "rejected", "abandoned"):
            counts = Counter(map(tenant_of, getattr(terminals, name)))
            for tenant, n in counts.items():
                led = ledger(tenant)
                setattr(led, name, getattr(led, name) + n)
        return self

    def totals(self) -> TenantLedger:
        """Sum of every counter across tenants."""
        tot = TenantLedger()
        for led in self.ledgers.values():
            tot.arrived += led.arrived
            tot.served += led.served
            tot.expired += led.expired
            tot.rejected += led.rejected
            tot.abandoned += led.abandoned
            tot.shed += led.shed
            tot.quota_rejected += led.quota_rejected
            tot.on_time += led.on_time
            tot.served_tokens += led.served_tokens
            tot.goodput_utility += led.goodput_utility
        return tot

    def assert_matches(self, metrics: "ServingMetrics") -> None:
        """Check what the grouping does not make true by construction.

        The terminal counters sum to the global ledger by construction;
        the plane's own counters do not: arrivals must equal the global
        ``arrived`` and, per tenant, that tenant's terminals; shed
        victims and quota refusals lie inside ``rejected``; the sheds
        sum to the global ``shed``.
        """
        tot = self.totals()
        pairs = {
            "arrived": (tot.arrived, metrics.arrived),
            "shed": (tot.shed, metrics.shed),
        }
        bad = {
            k: (ours, theirs)
            for k, (ours, theirs) in pairs.items()
            if ours != theirs
        }
        assert not bad, (
            f"tenant ledger conservation violated: per-tenant sums != "
            f"global ServingMetrics for {bad} "
            f"(tenants={sorted(self.ledgers)})"
        )
        for tenant, led in self.ledgers.items():
            assert led.conservation_ok, (
                f"tenant {tenant!r} ledger leaks: "
                f"{led.served}+{led.expired}+{led.rejected}+"
                f"{led.abandoned} != {led.arrived}"
            )
            assert led.shed + led.quota_rejected <= led.rejected, (
                f"tenant {tenant!r} sheds {led.shed} + quota refusals "
                f"{led.quota_rejected} exceed its {led.rejected} rejected"
            )

    def summary(self) -> dict[str, dict]:
        return {t: led.to_dict() for t, led in sorted(self.ledgers.items())}
