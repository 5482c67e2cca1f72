"""Fairness analysis: who gets served, by request length?

Utility ``v = 1/l`` makes DAS (and SJF) favour short requests; a
deployment should know how hard long requests are starved.  These
helpers bucket a simulation's offered requests by length and report the
per-bucket service rate, plus Jain's fairness index over those rates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.serving.metrics import ServingMetrics, Terminals
from repro.tenancy.ledger import TenantLedgerBook
from repro.types import Request

__all__ = [
    "service_rate_by_length",
    "service_rate_by_tenant",
    "jain_index",
    "tenant_jain_index",
]


def service_rate_by_length(
    metrics: ServingMetrics, num_buckets: int = 5
) -> dict[str, list[float]]:
    """Per-length-quantile service rates for one simulation.

    Buckets are length quantiles of the *offered* load (served ∪
    expired), so every bucket holds ≈ the same number of requests.
    Returns columns: bucket upper length, offered count, served count,
    service rate.
    """
    if num_buckets < 1:
        raise ValueError("num_buckets must be >= 1")
    offered: list[Request] = list(metrics.served) + list(metrics.expired)
    if not offered:
        return {
            "max_length": [],
            "offered": [],
            "served": [],
            "service_rate": [],
        }
    lengths = np.array([r.length for r in offered])
    served_ids = {r.request_id for r in metrics.served}
    edges = np.quantile(lengths, np.linspace(0, 1, num_buckets + 1))
    edges[-1] += 1  # include max
    out = {
        "max_length": [],
        "offered": [],
        "served": [],
        "service_rate": [],
    }
    for i in range(num_buckets):
        # Half-open [lo, hi) buckets; the top edge was bumped above so
        # the longest requests land in the last bucket.
        lo, hi = edges[i], edges[i + 1]
        in_bucket = [r for r in offered if lo <= r.length < hi]
        n = len(in_bucket)
        s = sum(1 for r in in_bucket if r.request_id in served_ids)
        out["max_length"].append(float(np.ceil(hi - 1)))
        out["offered"].append(float(n))
        out["served"].append(float(s))
        out["service_rate"].append(s / n if n else 0.0)
    return out


def service_rate_by_tenant(
    metrics: ServingMetrics,
) -> dict[str, dict[str, float]]:
    """Per-tenant offered/served counts and service rate.

    Offered load is served ∪ expired, mirroring
    :func:`service_rate_by_length`, grouped by the tenant ledgers' own
    fold; untagged requests fall under the ``"default"`` tenant.  Keys
    are tenant names sorted alphabetically.
    """
    offered = Terminals(metrics.served, metrics.expired, (), (), {})
    book = TenantLedgerBook().fold(offered)
    return {
        tenant: {
            "offered": float(led.served + led.expired),
            "served": float(led.served),
            "service_rate": led.served / (led.served + led.expired),
        }
        for tenant, led in sorted(book.ledgers.items())
    }


def jain_index(rates: Sequence[float]) -> float:
    """Jain's fairness index of per-bucket service rates (1 = perfectly fair)."""
    x = np.asarray([r for r in rates], dtype=float)
    if x.size == 0 or np.all(x == 0):
        return 0.0
    return float((x.sum() ** 2) / (x.size * np.square(x).sum()))


def tenant_jain_index(metrics: ServingMetrics) -> float:
    """Jain's index over per-tenant service rates (1 = perfectly fair).

    A single-tenant run is trivially fair (1.0); a run that served
    nothing scores 0.0, matching :func:`jain_index` conventions.
    """
    rates = [
        row["service_rate"]
        for row in service_rate_by_tenant(metrics).values()
    ]
    return jain_index(rates)
