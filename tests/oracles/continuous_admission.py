"""The iteration-level loop's original admission walk, kept verbatim.

Sort the whole waiting set by the admission key, then visit every
request in Python: over-long ones are passed over, a request the budget
cannot hold breaks the walk under FCFS (head-of-line blocking) and is
skipped under utility admission, and with tenant fair share each
candidate is checked against its tenant's allowance first.  Slow — it
visits every waiting request every iteration — and obviously the
definition.  ``repro.serving.continuous.admit`` must admit the same
requests in the same order and charge the share identically;
``tests/test_continuous_admission.py`` enforces it.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.tenancy.plane import IterationShare
from repro.types import Request

__all__ = ["reference_admission"]


def reference_admission(
    waiting: Sequence[Request],
    used: int,
    iter_budget: int,
    *,
    row_length: int,
    admission: str,
    share: Optional[IterationShare] = None,
    tenant_of: Optional[Callable[[Request], str]] = None,
) -> list[Request]:
    if admission == "fcfs":
        key = lambda r: (r.arrival, r.request_id)  # noqa: E731
    else:
        key = lambda r: (-r.utility, r.request_id)  # noqa: E731
    blocked: set[str] = set()
    admitted: list[Request] = []
    for req in sorted(waiting, key=key):
        if req.length > row_length:
            continue
        if share is not None:
            tenant = tenant_of(req)
            if tenant in blocked:
                continue
            if not share.fits(req):
                if admission == "fcfs":
                    blocked.add(tenant)  # per-tenant head-of-line
                continue
        if used + req.length > iter_budget:
            if admission == "fcfs":
                break  # head-of-line blocking, true to FCFS
            continue
        used += req.length
        if share is not None:
            share.charge(req)
        admitted.append(req)
    return admitted
