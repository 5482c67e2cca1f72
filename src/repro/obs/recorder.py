"""Span recorder: the write side of request-lifecycle tracing.

Two recorders share one call surface:

- :data:`NO_TRACE` — the no-op recorder the serving loops fall back to.
  It advertises ``enabled = False``; every emission site in a loop is
  guarded by that flag, so a run without tracing pays exactly one
  attribute lookup per site and never builds event objects.
- :class:`Tracer` — records typed :class:`~repro.obs.spans.RequestEvent`
  streams per request plus batch/scheduler lanes, all on the simulated
  clock (no wall-clock reads — ``repro/obs`` is inside tcblint TCB003's
  scope).

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
from repro.watermark import mark

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


class Tracer:
    """Records request lifecycles, batch lanes and scheduler decisions.

    Constructing with ``enabled=False`` yields a recorder that keeps the
    same interface but drops everything — used by the overhead benchmark
    to price the disabled guard against the untraced baseline.
    """

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        # request_id -> ordered lifecycle events.
        self.events: dict[int, list[RequestEvent]] = {}
        self.batches: list[BatchEvent] = []
        self.decisions: list[SchedulerEvent] = []
        # Overload-plane actions: sheds, level changes, breaker trips.
        self.overload_events: list[OverloadEvent] = []
        # request_id -> terminal outcome (the dedupe ledger).
        self._outcome: dict[int, str] = {}
        # Terminal events dropped by the dedupe (should stay 0; counted
        # so the regression tests can see attempted double-counts).
        self.duplicate_terminals = 0
        # request_id -> number of times scheduled (attempt counter).
        self.attempts: dict[int, int] = {}
        # Durability-plane actions: snapshots, commits, crash, restore.
        self.durability_events: list[DurabilityEvent] = []
        # Tail-tolerance-plane actions: health transitions, probes,
        # hedges and their resolutions.
        self.health_events: list[HealthEvent] = []
        # Tenancy-plane actions: quota rejections and fair-share splits.
        self.tenant_events: list[TenantEvent] = []
        # Optional journal sink (see attach_sink): while a list is
        # attached here, every post-dedupe emission is mirrored into it
        # as a tagged tuple.  The sink only grows, so the durability
        # plane reads each step's delta off its tail and a checkpoint is
        # the state at attach time plus a watermark into it.
        self.sink: Optional[list] = None
        self._base: Optional[dict] = None

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
        if not self.enabled:
            return
        rid = request.request_id
        if kind in TERMINAL_KINDS:
            if rid in self._outcome:
                self.duplicate_terminals += 1
                if self.sink is not None:
                    self.sink.append(("dup", rid))
                return
            self._outcome[rid] = kind.value
            # A request factually stayed unserved until its last recorded
            # event; clamp so end-of-run sweeps cannot time-travel.
            history = self.events.get(rid)
            if history:
                t = max(t, history[-1].t)
        event = RequestEvent(kind=kind, t=t, attrs=dict(attrs or {}))
        self.events.setdefault(rid, []).append(event)
        if self.sink is not None:
            self.sink.append(("event", rid, event))

    def arrive(self, request: Request, t: float) -> None:
        self._emit(request, EventKind.ARRIVE, t, {"length": request.length})

    def enqueue(self, request: Request, t: float) -> None:
        self._emit(request, EventKind.ENQUEUE, t)

    def scheduled(
        self, requests: Iterable[Request], t: float, **attrs: Any
    ) -> None:
        for r in requests:
            n = self.attempts.get(r.request_id, 0) + 1
            self.attempts[r.request_id] = n
            self._emit(r, EventKind.SCHEDULED, t, {"attempt": n, **attrs})

    def packed_layouts(self, layouts: Iterable, t: float) -> None:
        """PACKED events with (row, slot, start) from executed layouts."""
        for layout in layouts:
            for row_idx, row in enumerate(layout.rows):
                if getattr(row, "slots", None):
                    for slot_idx, slot in enumerate(row.slots):
                        for seg in slot.segments:
                            self._emit(
                                seg.request,
                                EventKind.PACKED,
                                t,
                                {"row": row_idx, "slot": slot_idx, "start": seg.start},
                            )
                else:
                    for seg in row.segments:
                        self._emit(
                            seg.request,
                            EventKind.PACKED,
                            t,
                            {"row": row_idx, "slot": 0, "start": seg.start},
                        )

    def executed(
        self,
        requests: Iterable[Request],
        t: float,
        latency: float,
        *,
        engine: int = 0,
    ) -> None:
        for r in requests:
            self._emit(
                r, EventKind.EXECUTED, t, {"latency": latency, "engine": engine}
            )

    def requeued(self, requests: Iterable[Request], t: float) -> None:
        for r in requests:
            self._emit(r, EventKind.REQUEUED, t)

    def served(self, requests: Iterable[Request], t: float) -> None:
        for r in requests:
            self._emit(r, EventKind.SERVED, t)

    def expired(self, requests: Iterable[Request], t: float) -> None:
        """Expiry sweep at simulated time ``t`` (or horizon clean-up).

        Each request expires at its own deadline when that is earlier
        than the sweep time — the deadline is when it actually left the
        servable set; Eq. 12's window is closed so ties go to ``t``.
        """
        for r in requests:
            self._emit(r, EventKind.EXPIRED, min(max(r.deadline, r.arrival), t))

    def rejected(self, request: Request, t: float) -> None:
        self._emit(request, EventKind.REJECTED, t)

    def abandoned(self, requests: Iterable[Request], t: float) -> None:
        for r in requests:
            self._emit(r, EventKind.ABANDONED, t)

    def batch(
        self,
        t: float,
        duration: float,
        *,
        engine: int = 0,
        kind: str = "batch",
        **attrs: Any,
    ) -> None:
        if not self.enabled:
            return
        event = BatchEvent(
            t_start=t, duration=duration, engine=engine, kind=kind, attrs=attrs
        )
        self.batches.append(event)
        if self.sink is not None:
            self.sink.append(("batch", event))

    def decision(
        self, t: float, runtime: float, attrs: Optional[Mapping[str, Any]] = None
    ) -> None:
        if not self.enabled:
            return
        event = SchedulerEvent(t=t, runtime=runtime, attrs=dict(attrs or {}))
        self.decisions.append(event)
        if self.sink is not None:
            self.sink.append(("decision", event))

    def overload(self, t: float, kind: str, **attrs: Any) -> None:
        """Record one overload-plane action (shed / level / breaker)."""
        if not self.enabled:
            return
        event = OverloadEvent(t=t, kind=kind, attrs=attrs)
        self.overload_events.append(event)
        if self.sink is not None:
            self.sink.append(("overload", event))

    def durability(self, t: float, kind: str, **attrs: Any) -> None:
        """Record one durability-plane action (snapshot / commit / …)."""
        if not self.enabled:
            return
        event = DurabilityEvent(t=t, kind=kind, attrs=attrs)
        self.durability_events.append(event)
        if self.sink is not None:
            self.sink.append(("durability", event))

    def health(self, t: float, kind: str, **attrs: Any) -> None:
        """Record one tail-tolerance action (transition / probe / hedge)."""
        if not self.enabled:
            return
        event = HealthEvent(t=t, kind=kind, attrs=attrs)
        self.health_events.append(event)
        if self.sink is not None:
            self.sink.append(("health", event))

    def tenant(self, t: float, kind: str, **attrs: Any) -> None:
        """Record one tenancy-plane action (quota / share)."""
        if not self.enabled:
            return
        event = TenantEvent(t=t, kind=kind, attrs=attrs)
        self.tenant_events.append(event)
        if self.sink is not None:
            self.sink.append(("tenant", event))

    # ------------------------------------------------------------------ #
    # Durability export / apply (see repro.durability.snapshot)
    # ------------------------------------------------------------------ #

    def _lanes(self) -> dict[str, list]:
        """Sink tag -> the event list emissions with that tag land in."""
        return {
            "batch": self.batches,
            "decision": self.decisions,
            "overload": self.overload_events,
            "durability": self.durability_events,
            "health": self.health_events,
            "tenant": self.tenant_events,
        }

    def _full_state(self) -> dict:
        return {
            "events": {rid: list(evs) for rid, evs in self.events.items()},
            "lanes": {tag: list(lane) for tag, lane in self._lanes().items()},
            "outcome": dict(self._outcome),
            "duplicate_terminals": self.duplicate_terminals,
            "attempts": dict(self.attempts),
        }

    def attach_sink(self) -> list:
        """Start mirroring emissions into a fresh sink; returns it.

        Copies the current state once (nothing, for a fresh tracer);
        from here on :meth:`export_state` costs O(1).  Detach by setting
        ``sink = None``.
        """
        self._base = self._full_state()
        self.sink = []
        return self.sink

    def export_state(self) -> dict:
        """Plain-data state: a base plus the emissions made since.

        With a sink attached that is the base taken at attach time and a
        (sink, length) watermark — per-request event lists mutate per
        key, so they cannot be watermarked one by one, but the sink is
        one grow-only list that determines all of them.  Without a sink
        it is a full copy and an empty tail.
        """
        if self.sink is None:
            return {**self._full_state(), "emitted": []}
        return {**self._base, "emitted": mark(self.sink)}

    def replay(self, emitted: Iterable[tuple]) -> None:
        """Re-apply sink entries (post-dedupe emissions) in order."""
        lanes = self._lanes()
        for item in emitted:
            tag = item[0]
            if tag == "event":
                _, rid, ev = item
                self.events.setdefault(rid, []).append(ev)
                if ev.kind in TERMINAL_KINDS:
                    self._outcome[rid] = ev.kind.value
                if ev.kind is EventKind.SCHEDULED:
                    self.attempts[rid] = ev.attrs.get(
                        "attempt", self.attempts.get(rid, 0)
                    )
            elif tag == "dup":
                self.duplicate_terminals += 1
            else:
                lanes[tag].append(item[1])

    def apply_state(self, state: dict) -> None:
        """Become the tracer a thawed :meth:`export_state` describes.

        Containers are refilled in place (callers hold ``events`` and the
        lanes); any attached sink is dropped, since it no longer
        describes this state.
        """
        self.sink = self._base = None
        self.events.clear()
        self.events.update(state["events"])
        for tag, lane in self._lanes().items():
            lane[:] = state["lanes"][tag]
        self._outcome.clear()
        self._outcome.update(state["outcome"])
        self.duplicate_terminals = state["duplicate_terminals"]
        self.attempts.clear()
        self.attempts.update(state["attempts"])
        self.replay(state["emitted"])

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #

    def spans(self) -> list[Span]:
        """Lifecycle spans: state opened by event *i* closes at event *i+1*.

        Terminal events become zero-length outcome markers.  Spans are
        ordered by (request_id, t_start).
        """
        out: list[Span] = []
        for rid in sorted(self.events):
            evs = self.events[rid]
            for ev, nxt in zip(evs, evs[1:]):
                out.append(
                    Span(
                        request_id=rid,
                        phase=ev.kind.value,
                        t_start=ev.t,
                        t_end=nxt.t,
                        attrs=ev.attrs,
                    )
                )
            last = evs[-1]
            out.append(
                Span(
                    request_id=rid,
                    phase=last.kind.value,
                    t_start=last.t,
                    t_end=last.t,
                    attrs=last.attrs,
                )
            )
        return out

    def outcomes(self) -> dict[int, str]:
        """request_id -> terminal outcome name."""
        return dict(self._outcome)

    def outcome_counts(self) -> dict[str, int]:
        counts = {k.value: 0 for k in TERMINAL_KINDS}
        for outcome in self._outcome.values():
            counts[outcome] += 1
        return counts

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
