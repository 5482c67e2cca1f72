"""Span recorder: the write side of request-lifecycle tracing.

Two recorders share one call surface:

- :data:`NO_TRACE` — the no-op recorder the serving loops fall back to.
  It advertises ``enabled = False``; every emission site in a loop is
  guarded by that flag, so a run without tracing pays exactly one
  attribute lookup per site and never builds event objects.
- :class:`Tracer` — appends every emission, request lifecycle and lane
  alike, to one log on the simulated clock (no wall-clock reads —
  ``repro/obs`` is inside TCB003's scope, ``tests/test_static_invariants.py``).  That log is the only
  store: the typed per-request :class:`~repro.obs.spans.RequestEvent`
  streams, the lanes, ``attempts`` and :meth:`Tracer.spans` are folded
  from its unseen tail when read, and a durability checkpoint is a
  watermark into it (``docs/observability.md``).

The recorder enforces the conservation ledger structurally: terminal
events are **deduped on request id** (a requeued request that is later
served and then swept by an end-of-run expiry pass cannot end twice),
and :meth:`Tracer.reconcile` asserts that span-derived outcome counts
equal the :class:`~repro.serving.metrics.ServingMetrics` ledger —
``served + expired + rejected + abandoned == arrived`` — turning the
serving loops' invariant into a cross-checkable audit trail.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence

from repro.obs.spans import (
    TERMINAL_KINDS,
    BatchEvent,
    DurabilityEvent,
    EventKind,
    HealthEvent,
    OverloadEvent,
    RequestEvent,
    SchedulerEvent,
    Span,
    TenantEvent,
)
from repro.types import Request
from repro.watermark import Watermark, mark

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.serving.metrics import ServingMetrics

__all__ = ["NO_TRACE", "NullTracer", "Tracer"]


class NullTracer:
    """Absorbs every emission; ``enabled`` is False so loops skip calls."""

    enabled: bool = False

    @staticmethod
    def _noop(*_args, **_kwargs) -> None:
        return None

    def __getattr__(self, _name: str):
        return self._noop


NO_TRACE = NullTracer()

# The kinds the write path passes around, bound once: an enum member
# looked up through its class, hashed or asked for ``.value`` costs a
# Python-level call each, which the emission path never makes.
_ARRIVE, _ENQUEUE, _SCHEDULED = EventKind.ARRIVE, EventKind.ENQUEUE, EventKind.SCHEDULED
_PACKED, _EXECUTED, _REQUEUED = EventKind.PACKED, EventKind.EXECUTED, EventKind.REQUEUED
_SERVED, _EXPIRED = EventKind.SERVED, EventKind.EXPIRED
_REJECTED, _ABANDONED = EventKind.REJECTED, EventKind.ABANDONED
# The tags of lane entries in the log; each lane's view goes by its tag.
_LANES = ("batch", "decision", "overload", "durability", "health", "tenant")


def _view(name: str, doc: str) -> property:
    """A read-only attribute served from the folded log (see ``_fold``)."""

    def read(self: "Tracer") -> Any:
        return self._fold()[name]

    return property(read, doc=doc)


class Tracer:
    """Records request lifecycles, batch lanes and scheduler decisions.

    Constructing with ``enabled=False`` yields a recorder that keeps the
    same interface but drops everything — used by the overhead benchmark
    to price the disabled guard against the untraced baseline.
    """

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        # The one store.  Every emission appends exactly one entry and
        # nothing ever rewrites one: ``(kind, request_id, t, attrs or
        # None)`` for a lifecycle event, ``(lane, event)`` for a lane,
        # ``("dup", request_id)`` for a terminal the dedupe dropped.
        self.log: list[tuple] = []
        # What the write path needs to decide an emission: request_id ->
        # terminal kind (the dedupe ledger), and request_id -> time of
        # its latest event while it has no terminal (the clamp).
        self._outcome: dict[int, EventKind] = {}
        self._last_t: dict[int, float] = {}
        # Everything readers see, folded from ``log[:_folded]``.
        self._folded = 0
        self._views: dict[str, Any] = {
            "events": {}, "attempts": {}, "dup": 0, **{lane: [] for lane in _LANES},
        }

    events = _view("events", "request_id -> ordered lifecycle events")
    attempts = _view("attempts", "request_id -> number of times scheduled")
    duplicate_terminals = _view(
        "dup", "terminal events dropped by the dedupe (should stay 0)"
    )
    batches = _view("batch", "engine slots / iterations, in emission order")
    decisions = _view("decision", "scheduler decisions")
    overload_events = _view("overload", "sheds, level changes, breaker trips")
    durability_events = _view("durability", "snapshots, crash, restore")
    health_events = _view("health", "health transitions, probes, hedges")
    tenant_events = _view("tenant", "quota rejections and fair-share splits")

    # ------------------------------------------------------------------ #
    # Emission (called by the serving loops, guarded by ``enabled``)
    # ------------------------------------------------------------------ #

    def _emit(
        self,
        request: Request,
        kind: EventKind,
        t: float,
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """One non-terminal event; *attrs* is kept, never copied or mutated."""
        if self.enabled:
            rid = request.request_id
            self._last_t[rid] = t
            self.log.append((kind, rid, t, attrs))

    def _end(self, request: Request, kind: EventKind, t: float) -> None:
        """One terminal event: at most one per request id."""
        if not self.enabled:
            return
        rid = request.request_id
        if rid in self._outcome:
            self.log.append(("dup", rid))
            return
        self._outcome[rid] = kind
        # A request factually stayed unserved until its last recorded
        # event; clamp so end-of-run sweeps cannot time-travel.
        last = self._last_t.pop(rid, t)
        self.log.append((kind, rid, last if last > t else t, None))

    def arrive(self, request: Request, t: float) -> None:
        self._emit(request, _ARRIVE, t, {"length": request.length})

    def enqueue(self, request: Request, t: float) -> None:
        self._emit(request, _ENQUEUE, t)

    def scheduled(
        self, requests: Iterable[Request], t: float, **attrs: Any
    ) -> None:
        """The fold numbers each request's attempts (``attrs["attempt"]``)."""
        for r in requests:
            self._emit(r, _SCHEDULED, t, attrs)

    def packed_layouts(self, layouts: Iterable, t: float) -> None:
        """PACKED events with (row, slot, start) from executed layouts."""
        for layout in layouts:
            for row_idx, row in enumerate(layout.rows):
                # An unslotted row counts as its own slot 0.
                slots = getattr(row, "slots", None) or (row,)
                for slot_idx, slot in enumerate(slots):
                    for seg in slot.segments:
                        self._emit(
                            seg.request,
                            _PACKED,
                            t,
                            {"row": row_idx, "slot": slot_idx, "start": seg.start},
                        )

    def executed(
        self,
        requests: Iterable[Request],
        t: float,
        latency: float,
        *,
        engine: int = 0,
    ) -> None:
        attrs = {"latency": latency, "engine": engine}
        for r in requests:
            self._emit(r, _EXECUTED, t, attrs)

    def requeued(self, requests: Iterable[Request], t: float) -> None:
        for r in requests:
            self._emit(r, _REQUEUED, t)

    def served(self, requests: Iterable[Request], t: float) -> None:
        for r in requests:
            self._end(r, _SERVED, t)

    def expired(self, requests: Iterable[Request], t: float) -> None:
        """Expiry sweep at simulated time ``t`` (or horizon clean-up).

        Each request expires at its own deadline when that is earlier
        than the sweep time — the deadline is when it actually left the
        servable set; Eq. 12's window is closed so ties go to ``t``.
        """
        for r in requests:
            self._end(r, _EXPIRED, min(max(r.deadline, r.arrival), t))

    def rejected(self, request: Request, t: float) -> None:
        self._end(request, _REJECTED, t)

    def abandoned(self, requests: Iterable[Request], t: float) -> None:
        for r in requests:
            self._end(r, _ABANDONED, t)

    def batch(
        self,
        t: float,
        duration: float,
        *,
        engine: int = 0,
        kind: str = "batch",
        **attrs: Any,
    ) -> None:
        if self.enabled:
            self.log.append(
                ("batch", BatchEvent(t, duration, engine=engine, kind=kind, attrs=attrs))
            )

    def decision(
        self, t: float, runtime: float, attrs: Optional[Mapping[str, Any]] = None
    ) -> None:
        if self.enabled:
            self.log.append(
                ("decision", SchedulerEvent(t=t, runtime=runtime, attrs=dict(attrs or {})))
            )

    def overload(self, t: float, kind: str, **attrs: Any) -> None:
        """Record one overload-plane action (shed / level / breaker)."""
        if self.enabled:
            self.log.append(("overload", OverloadEvent(t=t, kind=kind, attrs=attrs)))

    def durability(self, t: float, kind: str, **attrs: Any) -> None:
        """Record one durability-plane action (snapshot / crash / restore)."""
        if self.enabled:
            self.log.append(("durability", DurabilityEvent(t=t, kind=kind, attrs=attrs)))

    def health(self, t: float, kind: str, **attrs: Any) -> None:
        """Record one tail-tolerance action (transition / probe / hedge)."""
        if self.enabled:
            self.log.append(("health", HealthEvent(t=t, kind=kind, attrs=attrs)))

    def tenant(self, t: float, kind: str, **attrs: Any) -> None:
        """Record one tenancy-plane action (quota / share)."""
        if self.enabled:
            self.log.append(("tenant", TenantEvent(t=t, kind=kind, attrs=attrs)))

    # ------------------------------------------------------------------ #
    # Durability export / apply (see repro.durability.snapshot)
    # ------------------------------------------------------------------ #

    def export_state(self) -> dict[str, Watermark]:
        """The log as it stands: a reference and a length, O(1)."""
        return {"events": mark(self.log)}

    def apply_state(self, state: dict[str, list]) -> None:
        """Become the tracer whose log a thawed :meth:`export_state` holds.

        That list is adopted, not copied; the old log is left as it was
        (earlier checkpoints hold watermarks into it) and the views
        start over from nothing.
        """
        self.__init__(enabled=self.enabled)
        self.log = state["events"]
        for entry in self.log:
            if len(entry) == 4:
                kind, rid, t, _attrs = entry
                if kind in TERMINAL_KINDS:
                    self._outcome[rid] = kind
                    self._last_t.pop(rid, None)
                else:
                    self._last_t[rid] = t

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #

    def _fold(self) -> dict[str, Any]:
        """The views, brought up to the end of the log.

        Incremental and idempotent: only entries appended since the last
        read are folded, so reading mid-run and emitting more is fine.
        This is where ``RequestEvent`` objects come to exist.
        """
        views, log = self._views, self.log
        if self._folded < len(log):
            events, attempts = views["events"], views["attempts"]
            for entry in log[self._folded :]:
                if len(entry) == 4:
                    kind, rid, t, attrs = entry
                    if kind is _SCHEDULED:
                        n = attempts[rid] = attempts.get(rid, 0) + 1
                        attrs = {"attempt": n, **attrs}
                    elif attrs is None:
                        attrs = {}
                    events.setdefault(rid, []).append(RequestEvent(kind, t, attrs))
                elif entry[0] == "dup":
                    views["dup"] += 1
                else:
                    views[entry[0]].append(entry[1])
            self._folded = len(log)
        return views

    def spans(self) -> list[Span]:
        """Lifecycle spans: state opened by event *i* closes at event *i+1*.

        Terminal events become zero-length outcome markers.  Spans are
        ordered by (request_id, t_start).
        """
        events = self.events
        out: list[Span] = []
        for rid in sorted(events):
            evs = events[rid]
            # The last event closes on itself.
            for ev, nxt in zip(evs, evs[1:] + evs[-1:]):
                out.append(
                    Span(
                        request_id=rid,
                        phase=ev.kind.value,
                        t_start=ev.t,
                        t_end=nxt.t,
                        attrs=ev.attrs,
                    )
                )
        return out

    def outcomes(self) -> dict[int, str]:
        """request_id -> terminal outcome name."""
        return {rid: kind.value for rid, kind in self._outcome.items()}

    def outcome_counts(self) -> dict[str, int]:
        kinds = list(self._outcome.values())
        return {k.value: kinds.count(k) for k in TERMINAL_KINDS}

    @property
    def num_requests(self) -> int:
        return len(self.events)

    def reconcile(self, metrics: "ServingMetrics") -> None:
        """Assert the span ledger matches the metrics ledger 1:1.

        Every terminal span outcome must map onto the corresponding
        ``ServingMetrics`` bucket, and every arrived request must carry
        exactly one terminal span.  Raises AssertionError on any drift —
        the serving loops call this at the end of every traced run.
        """
        counts = self.outcome_counts()
        expected = {
            "served": metrics.num_served,
            "expired": metrics.num_expired,
            "rejected": metrics.num_rejected,
            "abandoned": metrics.num_abandoned,
        }
        if counts != expected:
            raise AssertionError(
                f"trace/metrics ledger mismatch: spans={counts} metrics={expected}"
            )
        terminal = len(self._outcome)
        if terminal != metrics.arrived:
            raise AssertionError(
                f"{terminal} terminal spans for {metrics.arrived} arrived requests"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer(requests={self.num_requests}, batches={len(self.batches)}, "
            f"decisions={len(self.decisions)}, outcomes={self.outcome_counts()})"
        )
