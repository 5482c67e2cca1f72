"""Multi-tenant QoS plane (extension beyond the paper; docs/tenancy.md).

Tenant identity + typed SLO classes (:mod:`repro.tenancy.registry`),
deterministic token-bucket admission on the sim clock
(:mod:`repro.tenancy.admission`), deficit-weighted fair sharing of the
batch over the existing schedulers (:mod:`repro.tenancy.fairshare`),
and per-tenant SLO ledgers grouped from the global ledger
(:mod:`repro.tenancy.ledger`) — all carried by one
:class:`~repro.tenancy.plane.TenancyPlane` threaded behind the serving
loops' ``tenancy=`` kwarg, inert when ``None``.
"""

from repro.tenancy.admission import QuotaExceeded, TokenBucket
from repro.tenancy.fairshare import fair_select
from repro.tenancy.ledger import TenantLedger, TenantLedgerBook
from repro.tenancy.plane import IterationShare, TenancyPlane
from repro.tenancy.registry import (
    DEFAULT_TENANT,
    SLO_CLASSES,
    TenantClass,
    TenantRegistry,
)

__all__ = [
    "DEFAULT_TENANT",
    "IterationShare",
    "QuotaExceeded",
    "SLO_CLASSES",
    "TenancyPlane",
    "TenantClass",
    "TenantLedger",
    "TenantLedgerBook",
    "TenantRegistry",
    "TokenBucket",
    "fair_select",
]
