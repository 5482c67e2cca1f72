"""Tenant identity and typed SLO classes.

The registry is the static half of the tenancy plane: a mapping from
tenant id to a :class:`TenantClass` describing its service-level
contract.  Three stock classes ship with the repo — ``premium``,
``standard`` and ``batch`` — differing in utility weight, deadline
slack, and token-bucket quota.  Everything is a frozen dataclass so a
registry can be shared between a workload generator and a simulator
without defensive copying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from repro.types import Request

__all__ = ["TenantClass", "TenantRegistry", "SLO_CLASSES", "DEFAULT_TENANT"]

# Tenant id used for ledger accounting of untenanted requests
# (``Request.tenant is None``).
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class TenantClass:
    """One typed SLO class.

    Parameters
    ----------
    name:
        Class label (``premium`` / ``standard`` / ``batch`` / custom).
    weight:
        Utility weight multiplier.  The workload generator stamps it
        onto every request of a tenant in this class, so DAS's
        ``v = w/l`` utility (and the fair-share deficit quantum) both
        see it — this is what makes the ``Request.weight`` docstring
        true.
    deadline_slack:
        Multiplier on the deadline slack ``d - a`` the workload
        generator draws.  Premium tenants get tighter deadlines
        (< 1.0), batch tenants looser ones (> 1.0).
    rate:
        Token-bucket refill rate in tokens per simulated second.
        ``None`` disables the bucket (unlimited quota).
    burst:
        Token-bucket capacity in tokens.  Ignored when ``rate`` is
        ``None``; defaults to one second of refill when left ``None``.
    max_in_flight:
        Cap on tokens admitted but not yet terminal (queued or
        running).  ``None`` means unbounded.
    """

    name: str = "standard"
    weight: float = 1.0
    deadline_slack: float = 1.0
    rate: Optional[float] = None
    burst: Optional[float] = None
    max_in_flight: Optional[int] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.deadline_slack <= 0:
            raise ValueError(
                f"deadline_slack must be positive, got {self.deadline_slack}"
            )
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.burst is not None and self.burst <= 0:
            raise ValueError(f"burst must be positive, got {self.burst}")
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )

    @property
    def bucket_burst(self) -> Optional[float]:
        """Effective bucket capacity (one second of refill by default)."""
        if self.rate is None:
            return None
        return self.burst if self.burst is not None else self.rate


# Stock SLO classes.  Quotas are deliberately None here: rate limits are
# a per-deployment knob, set when a registry is built for an experiment.
SLO_CLASSES: dict[str, TenantClass] = {
    "premium": TenantClass(name="premium", weight=4.0, deadline_slack=1.0),
    "standard": TenantClass(name="standard", weight=1.0, deadline_slack=1.0),
    "batch": TenantClass(name="batch", weight=0.25, deadline_slack=4.0),
}


class TenantRegistry:
    """Mapping of tenant ids to their SLO classes.

    ``tenants`` maps tenant id → :class:`TenantClass` (or a stock class
    name from :data:`SLO_CLASSES`).  Requests with ``tenant=None`` fall
    back to ``default_class`` and are accounted under
    :data:`DEFAULT_TENANT`.
    """

    def __init__(
        self,
        tenants: Optional[Mapping[str, Union[TenantClass, str]]] = None,
        *,
        default_class: Union[TenantClass, str] = "standard",
    ) -> None:
        self._classes: dict[str, TenantClass] = {}
        for tenant, cls in (tenants or {}).items():
            self._classes[tenant] = self._resolve(cls)
        self.default_class = self._resolve(default_class)

    @staticmethod
    def _resolve(cls: Union[TenantClass, str]) -> TenantClass:
        if isinstance(cls, TenantClass):
            return cls
        if cls not in SLO_CLASSES:
            raise KeyError(
                f"unknown SLO class {cls!r}; stock classes: "
                f"{sorted(SLO_CLASSES)}"
            )
        return SLO_CLASSES[cls]

    @property
    def tenants(self) -> tuple[str, ...]:
        """Registered tenant ids in insertion order."""
        return tuple(self._classes)

    @staticmethod
    def tenant_of(request: Request) -> str:
        """Ledger key for *request* (``DEFAULT_TENANT`` if untagged)."""
        return request.tenant if request.tenant is not None else DEFAULT_TENANT

    def tenant_class(self, tenant: Optional[str]) -> TenantClass:
        """SLO class for *tenant* (default class for unknown/None)."""
        if tenant is None:
            return self.default_class
        return self._classes.get(tenant, self.default_class)

    def effective_weight(self, tenant: Optional[str]) -> float:
        """Utility weight the tenant's SLO class confers on its requests."""
        return self.tenant_class(tenant).weight
