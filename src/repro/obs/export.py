"""Exporters for recorded traces: Chrome ``trace_event`` JSON, CSV, ASCII.

Chrome format (loadable in ``chrome://tracing`` / Perfetto): one
complete event (``ph: "X"``) per lifecycle span, instant events
(``ph: "i"``) for terminal outcomes, and fixed process lanes —

====  ===========  ============================================
pid   lane         tid convention
====  ===========  ============================================
1     requests     request_id
2     engines      engine index (cluster lanes)
3     scheduler    0
4     overload     engine index for breaker events, else 0
5     durability   0 (snapshots/crashes/restores)
6     health       engine index (transitions/probes/hedges)
====  ===========  ============================================

Lanes 4–6 are *conditional*: their metadata entries appear only when
the trace actually carries overload / durability / health events, so
traces from plain runs keep exactly the three classic lanes.

Timestamps are simulated seconds scaled to microseconds (Chrome's
``ts`` unit); every request event also carries the raw sim-time values
in ``args.t0`` / ``args.t1`` so :func:`spans_from_chrome_trace` can
round-trip spans bit-exactly.  The schema (keys, ``ph``/``pid``/``tid``
conventions) is pinned by ``tests/test_obs_chrome.py``.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Mapping

from repro.obs.recorder import Tracer
from repro.obs.spans import Span

__all__ = [
    "PID_REQUESTS",
    "PID_ENGINES",
    "PID_SCHEDULER",
    "PID_OVERLOAD",
    "PID_DURABILITY",
    "PID_HEALTH",
    "PID_TENANCY",
    "TIME_SCALE",
    "chrome_trace",
    "chrome_trace_json",
    "validate_chrome_trace",
    "spans_from_chrome_trace",
    "spans_to_csv",
    "ascii_timeline",
]

PID_REQUESTS = 1
PID_ENGINES = 2
PID_SCHEDULER = 3
# Overload-plane lane (sheds, degradation levels, breaker trips).  Its
# metadata entry is only emitted when a trace actually carries overload
# events, so pre-overload traces keep exactly the three classic lanes.
PID_OVERLOAD = 4
# Durability-plane lane (snapshots, crashes, restores).  Like
# the overload lane its metadata entry is emitted only when the trace
# carries durability events, so pre-durability traces are unchanged.
PID_DURABILITY = 5
# Tail-tolerance lane (health transitions, probes, hedges); conditional
# like the overload and durability lanes.
PID_HEALTH = 6
# Tenancy lane (quota rejections, fair-share splits); conditional like
# the other control-plane lanes.
PID_TENANCY = 7

# Simulated seconds -> Chrome's microsecond ``ts`` unit.
TIME_SCALE = 1e6

_PROCESS_NAMES = {
    PID_REQUESTS: "requests",
    PID_ENGINES: "engines",
    PID_SCHEDULER: "scheduler",
    PID_OVERLOAD: "overload",
    PID_DURABILITY: "durability",
    PID_HEALTH: "health",
    PID_TENANCY: "tenancy",
}

# The control-plane lanes: (tracer attribute, Chrome category, pid,
# whether an event's ``engine`` attribute picks its tid — breaker and
# health events concern one engine; everything else sits on tid 0).
_CONTROL_LANES = (
    ("overload_events", "overload", PID_OVERLOAD, True),
    ("durability_events", "durability", PID_DURABILITY, False),
    ("health_events", "health", PID_HEALTH, True),
    ("tenant_events", "tenancy", PID_TENANCY, False),
)
# Lanes whose metadata is conditional on the trace actually using them.
_OPTIONAL_PIDS = tuple(pid for _, _, pid, _ in _CONTROL_LANES)


def _metadata_events(*, active: frozenset[int] = frozenset()) -> list[dict[str, Any]]:
    return [
        {
            "name": "process_name",
            "cat": "__metadata",
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        }
        for pid, label in sorted(_PROCESS_NAMES.items())
        if pid not in _OPTIONAL_PIDS or pid in active
    ]


def chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """Lower a recorded trace to a Chrome ``trace_event`` document."""
    active = frozenset(
        pid for lane, _, pid, _ in _CONTROL_LANES if getattr(tracer, lane)
    )
    events: list[dict[str, Any]] = _metadata_events(active=active)
    for span in tracer.spans():
        args = {
            "request_id": span.request_id,
            "t0": span.t_start,
            "t1": span.t_end,
            **span.attrs,
        }
        common = {
            "name": span.phase,
            "cat": "request",
            "ts": span.t_start * TIME_SCALE,
            "pid": PID_REQUESTS,
            "tid": span.request_id,
            "args": args,
        }
        if span.is_terminal:
            events.append({**common, "ph": "i", "s": "t"})
        else:
            events.append(
                {**common, "ph": "X", "dur": span.duration * TIME_SCALE}
            )
    for b in tracer.batches:
        events.append(
            {
                "name": b.kind,
                "cat": "engine",
                "ph": "X",
                "ts": b.t_start * TIME_SCALE,
                "dur": b.duration * TIME_SCALE,
                "pid": PID_ENGINES,
                "tid": b.engine,
                "args": dict(b.attrs),
            }
        )
    for d in tracer.decisions:
        events.append(
            {
                "name": str(d.attrs.get("scheduler", "decision")),
                "cat": "scheduler",
                "ph": "X",
                "ts": d.t * TIME_SCALE,
                "dur": d.runtime * TIME_SCALE,
                "pid": PID_SCHEDULER,
                "tid": 0,
                "args": {"runtime": d.runtime, **d.attrs},
            }
        )
    for lane, category, pid, by_engine in _CONTROL_LANES:
        for ev in getattr(tracer, lane):
            events.append(
                {
                    "name": ev.kind,
                    "cat": category,
                    "ph": "i",
                    "s": "t",
                    "ts": ev.t * TIME_SCALE,
                    "pid": pid,
                    "tid": int(ev.attrs.get("engine", 0)) if by_engine else 0,
                    "args": {"t": ev.t, **ev.attrs},
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "outcomes": tracer.outcome_counts(),
        },
    }


def chrome_trace_json(tracer: Tracer, *, indent: int = 0) -> str:
    return json.dumps(chrome_trace(tracer), indent=indent or None)


def validate_chrome_trace(doc: Mapping[str, Any]) -> None:
    """Raise ValueError unless ``doc`` is a well-formed trace document.

    Checks the envelope, the per-event required keys, the ``ph`` values
    used by this exporter and the pid/tid lane conventions — the same
    validation ``make trace-smoke`` runs on the exported file.
    """
    if not isinstance(doc, Mapping) or "traceEvents" not in doc:
        raise ValueError("not a trace document: missing 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("'traceEvents' must be a non-empty list")
    for i, ev in enumerate(events):
        for key in ("name", "cat", "ph", "ts", "pid", "tid", "args"):
            if key not in ev:
                raise ValueError(f"event {i} missing required key {key!r}")
        if ev["ph"] not in ("M", "X", "i"):
            raise ValueError(f"event {i} has unknown ph {ev['ph']!r}")
        if ev["ph"] == "X" and "dur" not in ev:
            raise ValueError(f"complete event {i} missing 'dur'")
        if ev["ph"] == "X" and ev["dur"] < 0:
            raise ValueError(f"event {i} has negative duration")
        if ev["ph"] == "i" and ev.get("s") != "t":
            raise ValueError(f"instant event {i} missing thread scope 's': 't'")
        if ev["pid"] not in _PROCESS_NAMES:
            raise ValueError(f"event {i} uses unknown pid {ev['pid']!r}")
        if ev["cat"] == "request" and ev["tid"] != ev["args"].get("request_id"):
            raise ValueError(f"request event {i}: tid must equal request_id")


def spans_from_chrome_trace(doc: Mapping[str, Any]) -> list[Span]:
    """Reconstruct request lifecycle spans from an exported document.

    Inverse of the request-lane half of :func:`chrome_trace`; uses the
    raw ``args.t0`` / ``args.t1`` sim-time values, so
    ``spans_from_chrome_trace(chrome_trace(tr)) == tr.spans()``.
    """
    spans: list[Span] = []
    for ev in doc["traceEvents"]:
        if ev.get("cat") != "request":
            continue
        args = dict(ev["args"])
        rid = int(args.pop("request_id"))
        t0 = float(args.pop("t0"))
        t1 = float(args.pop("t1"))
        spans.append(
            Span(
                request_id=rid,
                phase=ev["name"],
                t_start=t0,
                t_end=t1,
                attrs=args,
            )
        )
    spans.sort(key=lambda s: (s.request_id, s.t_start, s.t_end, s.phase))
    return spans


def spans_to_csv(tracer: Tracer) -> str:
    """Flat CSV of lifecycle spans (attrs JSON-encoded in one column)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["request_id", "phase", "t_start", "t_end", "duration", "attrs"]
    )
    for s in tracer.spans():
        writer.writerow(
            [
                s.request_id,
                s.phase,
                repr(s.t_start),
                repr(s.t_end),
                repr(s.duration),
                json.dumps(dict(s.attrs), sort_keys=True),
            ]
        )
    return buf.getvalue()


def ascii_timeline(tracer: Tracer, *, num_points: int = 60) -> str:
    """Terminal view of a traced run via :mod:`repro.analysis.ascii_plot`.

    Samples queue depth, in-flight batch size and cumulative outcomes
    over the traced horizon — enough to eyeball where a run queued,
    stalled or shed load without leaving the terminal.
    """
    if num_points < 2:
        raise ValueError("num_points must be >= 2")
    spans = tracer.spans()
    if not spans:
        return "(empty trace)"
    t_end = max(s.t_end for s in spans)
    t_end = max(t_end, max((b.t_start + b.duration for b in tracer.batches), default=0.0))
    ts = [t_end * i / (num_points - 1) for i in range(num_points)]

    queued = [s for s in spans if s.phase in ("enqueue", "requeued")]
    served = sorted(
        s.t_start for s in spans if s.is_terminal and s.phase == "served"
    )
    failed = sorted(
        s.t_start
        for s in spans
        if s.is_terminal and s.phase in ("expired", "rejected", "abandoned")
    )

    def count_at(t: float) -> float:
        return float(sum(1 for s in queued if s.t_start <= t < s.t_end))

    def cum(sorted_times: list[float], t: float) -> float:
        n = 0
        for x in sorted_times:
            if x > t:
                break
            n += 1
        return float(n)

    series = {
        "queue depth": [count_at(t) for t in ts],
        "in batch": [
            float(
                sum(
                    int(b.attrs.get("num_requests", 1))
                    for b in tracer.batches
                    if b.t_start <= t < b.t_start + b.duration
                )
            )
            for t in ts
        ],
        "served cum": [cum(served, t) for t in ts],
        "failed cum": [cum(failed, t) for t in ts],
    }
    counts = tracer.outcome_counts()
    title = (
        f"trace: {tracer.num_requests} requests, {len(tracer.batches)} batches | "
        + " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    # Deferred: repro.analysis pulls in the serving stack, which itself
    # imports the obs layer — a module-level import here would be cyclic.
    from repro.analysis.ascii_plot import ascii_chart

    return ascii_chart(series, title=title, shared_scale=False)
