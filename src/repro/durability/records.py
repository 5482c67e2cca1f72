"""Typed journal records: the write-ahead vocabulary of the durability plane.

Every serving-state mutation that matters for crash recovery is lowered
to one of five record kinds — **enqueue**, **dispatch**, **terminal**,
**requeue**, **shed** — plus a per-step **commit** that seals the step
and carries the small absolute state (clock, counters, cursors) replay
cannot derive from the mutation records alone.

Records are *replay-idempotent by construction*: applying the committed
prefix of a journal to its base snapshot always yields the same state,
because list-valued state is rebuilt by appending records in journal
order while scalar state is written as absolute values at each commit
(never as increments).  Requests ride in the records as the frozen
value objects themselves, so a replayed queue holds requests that
compare (and hash) equal to the originals.

The dict/JSONL forms exist for the crash/restore differential report:
mutation records round-trip exactly; a :class:`CommitRecord` lowers to
a JSON-safe summary of its :class:`StepState` (the in-memory journal
keeps the full state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.types import Request

__all__ = [
    "TERMINAL_RECORD_KINDS",
    "JournalRecord",
    "EnqueueRecord",
    "DispatchRecord",
    "TerminalRecord",
    "RequeueRecord",
    "ShedRecord",
    "HedgeRecord",
    "StepState",
    "CommitRecord",
    "record_from_dict",
]

# Terminal record kinds mirror the ServingMetrics conservation buckets.
TERMINAL_RECORD_KINDS = frozenset(
    {"served", "expired", "rejected", "abandoned"}
)


def _request_to_dict(r: Request) -> dict[str, Any]:
    return {
        "request_id": r.request_id,
        "length": r.length,
        "arrival": r.arrival,
        "deadline": r.deadline,
        "tokens": None if r.tokens is None else list(r.tokens),
        "weight": r.weight,
        "tenant": r.tenant,
    }


def _request_from_dict(d: Mapping[str, Any]) -> Request:
    return Request(
        request_id=int(d["request_id"]),
        length=int(d["length"]),
        arrival=float(d["arrival"]),
        deadline=float(d["deadline"]),
        tokens=(
            None
            if d.get("tokens") is None
            else tuple(int(t) for t in d["tokens"])
        ),
        weight=float(d["weight"]),
        tenant=d.get("tenant"),
    )


@dataclass(frozen=True)
class JournalRecord:
    """Base record: every record belongs to exactly one serving step."""

    step: int

    kind: str = field(default="base", init=False)

    def to_dict(self) -> dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class EnqueueRecord(JournalRecord):
    """A request entered the wait queue (admitted arrival or submit).

    Carries the full request payload so a server restore can rebuild
    requests that exist nowhere else (online submits have no workload
    list to resolve ids against).
    """

    request: Request = None  # type: ignore[assignment]

    kind: str = field(default="enqueue", init=False)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "step": self.step,
            "request": _request_to_dict(self.request),
        }


@dataclass(frozen=True)
class DispatchRecord(JournalRecord):
    """Write-ahead: requests were handed to an engine slot.

    Journalled *before* the engine call, so a crash between dispatch and
    completion leaves a trailing uncommitted dispatch — which restore
    voids (the requests stay queued in the restored state and are
    re-dispatched, consuming the same fault-plan events).  ``resident``
    marks iteration-level admission, where dispatch removes the
    requests from the wait queue into the resident batch; batch-level
    dispatch leaves the queue untouched until success.
    """

    requests: tuple[Request, ...] = ()
    engine: int = 0
    resident: bool = False

    kind: str = field(default="dispatch", init=False)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "step": self.step,
            "request_ids": [r.request_id for r in self.requests],
            "requests": [_request_to_dict(r) for r in self.requests],
            "engine": self.engine,
            "resident": self.resident,
        }


@dataclass(frozen=True)
class TerminalRecord(JournalRecord):
    """Requests reached a conservation bucket: served/expired/rejected/abandoned.

    ``finish`` is the simulated completion time (served only).
    ``dequeue`` says whether the terminal also removed the requests from
    the wait queue (batch-level serves do; iteration-level serves
    dequeued at dispatch time, so their terminals touch only metrics).
    """

    terminal: str = "expired"
    requests: tuple[Request, ...] = ()
    finish: Optional[float] = None
    dequeue: bool = True

    kind: str = field(default="terminal", init=False)

    def __post_init__(self) -> None:
        if self.terminal not in TERMINAL_RECORD_KINDS:
            raise ValueError(f"unknown terminal kind {self.terminal!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "step": self.step,
            "terminal": self.terminal,
            "requests": [_request_to_dict(r) for r in self.requests],
            "finish": self.finish,
            "dequeue": self.dequeue,
        }


@dataclass(frozen=True)
class RequeueRecord(JournalRecord):
    """A failed batch went through attempt accounting and requeue.

    ``attempts`` holds the post-bump absolute attempt count per failed
    request (absolute, so replay never double-increments); ``retained``
    are the requests the retry policy kept.  ``readd`` marks the
    iteration-level flavour where retained requests must re-enter the
    wait queue (batch-level retained requests never left it).
    Abandoned casualties are journalled separately as terminal records.
    """

    attempts: tuple[tuple[int, int], ...] = ()
    retained: tuple[Request, ...] = ()
    readd: bool = False

    kind: str = field(default="requeue", init=False)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "step": self.step,
            "attempts": [list(pair) for pair in self.attempts],
            "retained": [_request_to_dict(r) for r in self.retained],
            "readd": self.readd,
        }


@dataclass(frozen=True)
class ShedRecord(JournalRecord):
    """Load shedding took queued requests into the rejected bucket."""

    requests: tuple[Request, ...] = ()

    kind: str = field(default="shed", init=False)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "step": self.step,
            "requests": [_request_to_dict(r) for r in self.requests],
        }


@dataclass(frozen=True)
class HedgeRecord(JournalRecord):
    """A hedged dispatch resolved: which copy won, what the loser cost.

    Pure audit record — queue and ledger effects of a hedge ride in the
    winner's ordinary dispatch/terminal records, so replaying a hedge
    is a structural no-op (exactly-once by construction).  It exists so
    a warm restart's journal tells the same hedging story the crashed
    run would have, and so the differential report can name every race.
    """

    requests: tuple[Request, ...] = ()
    primary: int = 0
    target: int = 0
    deadline: float = 0.0
    outcome: str = "lose"  # win | lose | failed
    winner_finish: float = 0.0

    kind: str = field(default="hedge", init=False)

    def __post_init__(self) -> None:
        if self.outcome not in ("win", "lose", "failed"):
            raise ValueError(f"unknown hedge outcome {self.outcome!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "step": self.step,
            "request_ids": [r.request_id for r in self.requests],
            "requests": [_request_to_dict(r) for r in self.requests],
            "primary": self.primary,
            "target": self.target,
            "deadline": self.deadline,
            "outcome": self.outcome,
            "winner_finish": self.winner_finish,
        }


@dataclass
class StepState:
    """Absolute small state sealed into a step's commit.

    Everything here is cheap to export per step and impossible to derive
    from the mutation records: the simulated clock, the arrival cursor,
    metric counters (absolute values — note ``scheduler_time`` is
    wall-clock, which is exactly why it must be *recorded* rather than
    re-measured on replay), the per-step deltas of grow-only side state
    (tracer emissions, admission rejections), and ``absolute`` — what
    :func:`repro.durability.snapshot.absolute_state` exports whole at
    every commit: the shared controllers and planes, per-loop structures
    (cluster idle heap, iteration-level residents, RNG cursor) and
    fault-engine cursors.
    """

    now: float = 0.0
    next_arrival: int = 0
    arrived: int = 0
    engine_time: float = 0.0
    scheduler_time: float = 0.0
    num_batches: int = 0
    useful_tokens: int = 0
    padded_tokens: int = 0
    retries: int = 0
    failed_batches: int = 0
    downtime: float = 0.0
    shed: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    hedge_wasted: float = 0.0
    # Per-step deltas of grow-only state.  The admission delta is the
    # journal's only trace of an offline run's arrival-time refusals
    # (restore takes the controller's state from ``absolute``).
    tracer_delta: tuple = ()
    admission_rejected: tuple[Request, ...] = ()
    # name -> exported state; None where the run has no such state.
    absolute: dict[str, Any] = field(default_factory=dict)
    # Loop-specific extras (e.g. the online server's new responses).
    extra: dict[str, Any] = field(default_factory=dict)

    def summary(self) -> dict[str, Any]:
        """JSON-safe projection for the differential report."""
        return {
            "now": self.now,
            "next_arrival": self.next_arrival,
            "arrived": self.arrived,
            "engine_time": self.engine_time,
            "scheduler_time": self.scheduler_time,
            "num_batches": self.num_batches,
            "useful_tokens": self.useful_tokens,
            "padded_tokens": self.padded_tokens,
            "retries": self.retries,
            "failed_batches": self.failed_batches,
            "downtime": self.downtime,
            "shed": self.shed,
            "tracer_delta": len(self.tracer_delta),
            "admission_rejected": [
                r.request_id for r in self.admission_rejected
            ],
            "iteration": self.absolute.get("iteration"),
        }


@dataclass(frozen=True)
class CommitRecord(JournalRecord):
    """Seals one step: every record of this step is now durable.

    Records of a step with no commit are *uncommitted* — a crash left
    them trailing — and restore ignores them (except write-ahead
    enqueues in server mode, which are client-acknowledged and must be
    recovered).
    """

    state: StepState = field(default_factory=StepState)

    kind: str = field(default="commit", init=False)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "step": self.step,
            "state": self.state.summary(),
        }


_MUTATION_KINDS = {
    "enqueue": EnqueueRecord,
    "dispatch": DispatchRecord,
    "terminal": TerminalRecord,
    "requeue": RequeueRecord,
    "shed": ShedRecord,
    "hedge": HedgeRecord,
}


def record_from_dict(d: Mapping[str, Any]) -> JournalRecord:
    """Rebuild a mutation record from its dict form (JSONL ingest).

    Commit records do not round-trip (their full state is in-memory
    only); ingesting one raises so a truncated report cannot silently
    masquerade as a replayable journal.
    """
    kind = d.get("kind")
    step = int(d["step"])
    if kind == "enqueue":
        return EnqueueRecord(step=step, request=_request_from_dict(d["request"]))
    if kind == "dispatch":
        return DispatchRecord(
            step=step,
            requests=tuple(_request_from_dict(r) for r in d["requests"]),
            engine=int(d.get("engine", 0)),
            resident=bool(d.get("resident", False)),
        )
    if kind == "terminal":
        return TerminalRecord(
            step=step,
            terminal=str(d["terminal"]),
            requests=tuple(_request_from_dict(r) for r in d["requests"]),
            finish=d.get("finish"),
            dequeue=bool(d.get("dequeue", True)),
        )
    if kind == "requeue":
        return RequeueRecord(
            step=step,
            attempts=tuple((int(a), int(b)) for a, b in d["attempts"]),
            retained=tuple(_request_from_dict(r) for r in d["retained"]),
            readd=bool(d.get("readd", False)),
        )
    if kind == "shed":
        return ShedRecord(
            step=step,
            requests=tuple(_request_from_dict(r) for r in d["requests"]),
        )
    if kind == "hedge":
        return HedgeRecord(
            step=step,
            requests=tuple(_request_from_dict(r) for r in d["requests"]),
            primary=int(d.get("primary", 0)),
            target=int(d.get("target", 0)),
            deadline=float(d.get("deadline", 0.0)),
            outcome=str(d.get("outcome", "lose")),
            winner_finish=float(d.get("winner_finish", 0.0)),
        )
    raise ValueError(f"cannot rebuild journal record of kind {kind!r}")
