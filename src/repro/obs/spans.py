"""Typed span/event vocabulary for request-lifecycle tracing.

The paper's claims (Figs. 9–16) are statements about *where time and
padded-zero waste go*; :mod:`repro.obs` follows every request through
its lifecycle on the simulated clock so those claims can be audited per
request instead of inferred from end-of-run aggregates.

The lifecycle is a small state machine::

    arrive → enqueue → scheduled → packed(row, slot) → executed
           → served | expired | rejected | abandoned

``requeued`` loops a request back to the queued state after a fault
(retry path), so one request may carry several ``scheduled`` events —
but always exactly **one** terminal event (the recorder dedupes on
request id; see ``docs/observability.md``).

A :class:`Span` is the time a request spent in the state a
:class:`RequestEvent` opened; terminal spans have zero duration.  Batch
and scheduler activity are recorded separately (:class:`BatchEvent`,
:class:`SchedulerEvent`) because they belong to engine/scheduler lanes,
not to any single request.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "EventKind",
    "TERMINAL_KINDS",
    "RequestEvent",
    "Span",
    "BatchEvent",
    "SchedulerEvent",
    "OverloadEvent",
    "DurabilityEvent",
    "HealthEvent",
    "TenantEvent",
]


class EventKind(str, enum.Enum):
    """One step of the request lifecycle."""

    ARRIVE = "arrive"
    ENQUEUE = "enqueue"
    SCHEDULED = "scheduled"
    PACKED = "packed"
    EXECUTED = "executed"
    REQUEUED = "requeued"
    # Terminal outcomes — exactly one per request, mirroring the
    # ServingMetrics conservation ledger
    # (served + expired + rejected + abandoned == arrived).
    SERVED = "served"
    EXPIRED = "expired"
    REJECTED = "rejected"
    ABANDONED = "abandoned"


TERMINAL_KINDS = frozenset(
    {EventKind.SERVED, EventKind.EXPIRED, EventKind.REJECTED, EventKind.ABANDONED}
)
_TERMINAL_PHASES = frozenset(k.value for k in TERMINAL_KINDS)


@dataclass(frozen=True)
class RequestEvent:
    """One lifecycle transition of one request, on the simulated clock."""

    kind: EventKind
    t: float
    attrs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Span:
    """Time a request spent in one lifecycle state.

    ``phase`` is the :class:`EventKind` value that *opened* the state;
    the span closes when the next event fires.  Terminal spans are
    zero-length markers carrying the outcome.
    """

    request_id: int
    phase: str
    t_start: float
    t_end: float
    attrs: Mapping[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def is_terminal(self) -> bool:
        return self.phase in _TERMINAL_PHASES


@dataclass(frozen=True)
class BatchEvent:
    """One engine slot / iteration: what ran, for how long, how well.

    ``attrs`` carries padding-efficiency (useful/padded tokens,
    utilisation), slot size, the cost-model breakdown and memory
    watermark (when the loop asked the engine to annotate), and
    fault/retry annotations (``fault``, ``failures``, ``wasted``).
    """

    t_start: float
    duration: float
    engine: int = 0
    kind: str = "batch"  # batch | iteration | failed | crash
    attrs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class OverloadEvent:
    """One overload-plane action, on the simulated clock.

    ``kind`` names the action — ``"shed"`` (a load-shedding decision
    with victim count/tokens/policy), ``"level"`` (a degradation-level
    transition with the triggering signals) or ``"breaker"`` (a circuit
    breaker state change with its engine index).  These live in their
    own lane: they are control-plane decisions *about* requests and
    engines, not lifecycle steps of any single request.
    """

    t: float
    kind: str
    attrs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class DurabilityEvent:
    """One durability-plane action, on the simulated clock.

    ``kind`` names the action — ``"snapshot"`` (a checkpoint was taken,
    with its sequence number and step), ``"crash"`` (a planned scheduler
    crash fired), ``"restore"`` (a run resumed from a snapshot, with the
    restart snapshot's sequence number, the step it re-executes from,
    the snapshot it was restored from and the server submits recovered
    from the journal).  Like overload events these are
    control-plane actions, not lifecycle steps of any request, so they
    live in their own lane.
    """

    t: float
    kind: str
    attrs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class HealthEvent:
    """One tail-tolerance-plane action, on the simulated clock.

    ``kind`` names the action — ``"health"`` (a scoreboard state
    transition with old/new state, score and reason), ``"probe"`` (a
    probe batch dispatched on a quarantined engine), ``"hedge"`` (a
    duplicate batch issued past the hedge deadline) or
    ``"hedge-win"`` / ``"hedge-lose"`` / ``"hedge-failed"`` (how the
    race resolved).  Control-plane actions about engines, not lifecycle
    steps of any request, so they live in their own lane.
    """

    t: float
    kind: str
    attrs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class TenantEvent:
    """One tenancy-plane action, on the simulated clock.

    ``kind`` names the action — ``"quota"`` (a token-bucket or
    in-flight-cap rejection, with the tenant and reason) or ``"share"``
    (one fair-share decision's row/token split across tenants).
    Control-plane actions about tenants, not lifecycle steps of any
    request, so they live in their own lane.
    """

    t: float
    kind: str
    attrs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SchedulerEvent:
    """One scheduler decision (per-decision DAS observability).

    ``runtime`` is the wall-clock seconds the decision took (the Fig. 16
    quantity); ``attrs`` carries the decision's self-description — for
    DAS the utility-dominant vs deadline-aware set sizes and η/q, for
    Slotted DAS additionally the derived slot size and discard count.
    """

    t: float
    runtime: float
    attrs: Mapping[str, Any] = field(default_factory=dict)
