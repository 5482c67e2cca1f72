"""Canonical digests for crash/restore differential comparison.

The tentpole correctness claim — crash-at-any-step + restore reproduces
the uninterrupted run *bit-for-bit* per seed — is checked by comparing
these digests, which lower ledger/trace/queue state to plain nested
structures safe to compare with ``==`` and to serialise into the CI
differential report.

Wall-clock quantities are excluded by construction:
``ServingMetrics.total_scheduler_time`` and ``SchedulerEvent.runtime``
measure *host* time (the Fig. 16 quantities, TCB003-waived at their
source), so two otherwise identical runs legitimately differ there.
:func:`state_digest` — used only for the plane's *internal*
snapshot self-audit, where the restored value was read from the live
state it is compared with — is the one digest that includes scheduler
time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduling.queue import RequestQueue
    from repro.serving.metrics import ServingMetrics

__all__ = ["digest_diff", "ledger_digest", "state_digest", "trace_digest"]


def ledger_digest(metrics: "ServingMetrics") -> dict[str, Any]:
    """The terminal ledger as a comparable structure (order-sensitive).

    Excludes ``total_scheduler_time`` (wall clock); everything else —
    including list order, which a resumed run must reproduce — is part
    of the bit-for-bit claim.
    """
    return {
        "served": [r.request_id for r in metrics.served],
        "expired": [r.request_id for r in metrics.expired],
        "rejected": [r.request_id for r in metrics.rejected],
        "abandoned": [r.request_id for r in metrics.abandoned],
        "finish_times": sorted(metrics.finish_times.items()),
        "arrived": metrics.arrived,
        "retries": metrics.retries,
        "failed_batches": metrics.failed_batches,
        "downtime": metrics.downtime,
        "shed": metrics.shed,
        "hedges": getattr(metrics, "hedges", 0),
        "hedge_wins": getattr(metrics, "hedge_wins", 0),
        "hedge_wasted": getattr(metrics, "hedge_wasted", 0.0),
        "engine_time": metrics.total_engine_time,
        "num_batches": metrics.num_batches,
        "useful_tokens": metrics.useful_tokens,
        "padded_tokens": metrics.padded_tokens,
        "horizon": metrics.horizon,
    }


def trace_digest(tracer: Any) -> Optional[dict[str, Any]]:
    """The tracer's observable state, wall-clock-free (None if untraced).

    ``SchedulerEvent.runtime`` is dropped; durability events are
    excluded too — the crashed+restored run legitimately carries
    snapshot/restore spans the uninterrupted run does not.
    """
    if tracer is None or not getattr(tracer, "enabled", False):
        return None
    return {
        "events": {
            rid: [(ev.kind.value, ev.t, dict(ev.attrs)) for ev in evs]
            for rid, evs in tracer.events.items()
        },
        "batches": [
            (b.t_start, b.duration, b.engine, b.kind, dict(b.attrs))
            for b in tracer.batches
        ],
        "decisions": [(d.t, dict(d.attrs)) for d in tracer.decisions],
        "overload": [
            (e.t, e.kind, dict(e.attrs)) for e in tracer.overload_events
        ],
        "health": [(e.t, e.kind, dict(e.attrs)) for e in tracer.health_events],
        "tenant": [(e.t, e.kind, dict(e.attrs)) for e in tracer.tenant_events],
        "outcomes": tracer.outcomes(),
        "duplicates": tracer.duplicate_terminals,
        "attempts": dict(tracer.attempts),
    }


def state_digest(
    queue: "RequestQueue",
    metrics: "ServingMetrics",
    *,
    now: float,
    next_arrival: int,
) -> dict[str, Any]:
    """Full live-state fingerprint for the snapshot self-audit.

    Includes scheduler time: a restore and the live state it was taken
    from must agree on it, though two runs would not.  The queue's
    per-id history covers only requests that have not ended other than
    served: attempt counts of the waiting and resident requests, and the
    served and resident ids.  What it holds about expired, rejected or
    abandoned requests is never read again, and no checkpoint keeps it.
    """
    ended = {
        r.request_id
        for ledger in (
            queue.expired, queue.abandoned,
            metrics.expired, metrics.rejected, metrics.abandoned,
        )
        for r in ledger
    }
    served = {r.request_id for r in metrics.served}
    return {
        "now": now,
        "next_arrival": next_arrival,
        "waiting": queue.waiting_ids(),
        "queued_tokens": queue.queued_tokens,
        "attempts": sorted(
            (rid, n) for rid, n in queue.attempts.items()
            if rid not in ended and rid not in served
        ),
        "served_ids": sorted(queue.served_ids - ended),
        "queue_expired": [r.request_id for r in queue.expired],
        "queue_abandoned": [r.request_id for r in queue.abandoned],
        "scheduler_time": metrics.total_scheduler_time,
        "ledger": ledger_digest(metrics),
    }


def digest_diff(a: Any, b: Any, prefix: str = "") -> list[str]:
    """Human-readable paths where two digests differ (for the report)."""
    if isinstance(a, dict) and isinstance(b, dict):
        out: list[str] = []
        for key in sorted(set(a) | set(b), key=str):
            pa, pb = a.get(key), b.get(key)
            if pa != pb:
                out.extend(digest_diff(pa, pb, f"{prefix}{key}."))
        return out
    if a != b:
        return [f"{prefix.rstrip('.')}: {a!r} != {b!r}"]
    return []
