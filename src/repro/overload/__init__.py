"""Overload management: backpressure, shedding, breakers, degradation.

The paper's DAS analysis (Theorem 5.1) holds while the wait queue stays
tractable; under sustained overload an unbounded queue lets goodput
collapse past the saturation knee — slots are spent on requests that
expire mid-service.  This package adds the production-serving overload
plane on top of the deadline-aware core, all on the simulated clock:

- :mod:`~repro.overload.backpressure` — bounded-queue limits and the
  typed :class:`QueuePressure` signal (no silent unbounded growth),
- :mod:`~repro.overload.shedding` — pluggable victim-selection policies
  invoked on pressure (lowest-utility-first, latest-deadline-first,
  seeded random baseline),
- :mod:`~repro.overload.breaker` — per-engine circuit breaker
  (closed → open → half-open) driven by the fault plane's typed
  failures,
- :mod:`~repro.overload.controller` — the hysteresis degradation state
  machine (NORMAL → SHED → BROWNOUT) that ties the pieces together and
  is what the serving loops accept via their ``overload=`` keyword.

The plane only *decides*: which requests to shed, whether an arrival or
an engine may proceed.  Removing the victims from the wait queue and
booking them as ``rejected`` is done by
:meth:`repro.serving.lifecycle.Lifecycle.expire_and_shed`, like every
other queue removal, which keeps the conservation invariant ``served +
expired + rejected + abandoned == arrived`` exact under shedding.

Everything is deterministic from ``(config, seed)`` and disabled by
default: a loop run with ``overload=None`` (or an all-default
:class:`OverloadConfig`) is bit-identical to the pre-overload
behaviour.  See ``docs/overload.md``.
"""

from repro.overload.backpressure import (
    BackpressureError,
    QueueLimits,
    QueuePressure,
)
from repro.overload.breaker import (
    BreakerConfig,
    BreakerState,
    BreakerTransition,
    CircuitBreaker,
)
from repro.overload.controller import (
    DegradationConfig,
    OverloadConfig,
    OverloadController,
    ServiceLevel,
)
from repro.overload.shedding import (
    LatestDeadlineFirst,
    LowestUtilityFirst,
    RandomShed,
    SheddingPolicy,
    TenantWeightedShed,
    make_shedder,
)

__all__ = [
    "BackpressureError",
    "QueueLimits",
    "QueuePressure",
    "BreakerConfig",
    "BreakerState",
    "BreakerTransition",
    "CircuitBreaker",
    "DegradationConfig",
    "OverloadConfig",
    "OverloadController",
    "ServiceLevel",
    "SheddingPolicy",
    "LowestUtilityFirst",
    "LatestDeadlineFirst",
    "RandomShed",
    "TenantWeightedShed",
    "make_shedder",
]
