"""Write-ahead journal: ordered records + periodic snapshots.

The journal is the durability plane's single source of truth: mutation
records are appended in execution order, a :class:`CommitRecord` seals
each completed step, and :class:`~repro.durability.snapshot.Snapshot`
checkpoints bound how much journal a restore has to replay.

A step is **committed** once its commit record lands; records of a step
with no commit are the trailing debris of a crash.  :meth:`Journal.audit`
turns the record stream into the exactly-once ledger the tests pin: no
request id may appear in more than one terminal record, and every
enqueue must resolve to at most one terminal.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterator, Optional

from repro.durability.records import (
    CommitRecord,
    DispatchRecord,
    EnqueueRecord,
    JournalRecord,
    RequeueRecord,
    TerminalRecord,
    record_from_dict,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.durability.snapshot import Snapshot

__all__ = ["Journal", "records_from_jsonl"]


class Journal:
    """Append-only record log with interleaved snapshots."""

    def __init__(self) -> None:
        self.records: list[JournalRecord] = []
        self.snapshots: list["Snapshot"] = []

    # ------------------------------------------------------------------ #
    # Write side
    # ------------------------------------------------------------------ #

    def append(self, record: JournalRecord) -> None:
        self.records.append(record)

    def add_snapshot(self, snapshot: "Snapshot") -> None:
        self.snapshots.append(snapshot)

    def clear(self) -> None:
        self.records.clear()
        self.snapshots.clear()

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #

    @property
    def latest_snapshot(self) -> Optional["Snapshot"]:
        return self.snapshots[-1] if self.snapshots else None

    def committed_steps(self) -> set[int]:
        """Steps sealed by a commit record."""
        return {
            r.step for r in self.records if isinstance(r, CommitRecord)
        }

    def last_committed_step(self) -> Optional[int]:
        committed = self.committed_steps()
        return max(committed) if committed else None

    def committed_records(self, from_step: int) -> Iterator[JournalRecord]:
        """Records of committed steps ``>= from_step``, in journal order."""
        committed = self.committed_steps()
        for rec in self.records:
            if rec.step >= from_step and rec.step in committed:
                yield rec

    def request_history(self, before_step: int) -> tuple[set[int], dict[int, int]]:
        """``(served_ids, attempts)`` of the queue at the start of a step.

        The two pieces of queue state that are keyed by request id and
        change per key, so a checkpoint cannot watermark them — and need
        not: every change is one of the records folded here (a resident
        dispatch or a dequeuing ``served`` terminal marks ids
        dispatched, a requeue assigns absolute attempt counts and, for
        evicted residents, un-marks the retained ones).  A journal's run
        starts on a fresh queue, so the fold starts empty.
        """
        committed = self.committed_steps()
        served_ids: set[int] = set()
        attempts: dict[int, int] = {}
        for rec in self.records:
            if rec.step >= before_step or rec.step not in committed:
                continue
            if isinstance(rec, RequeueRecord):
                attempts.update(rec.attempts)
                if rec.readd:
                    served_ids.difference_update(
                        r.request_id for r in rec.retained
                    )
            elif (isinstance(rec, DispatchRecord) and rec.resident) or (
                isinstance(rec, TerminalRecord)
                and rec.terminal == "served"
                and rec.dequeue
            ):
                served_ids.update(r.request_id for r in rec.requests)
        return served_ids, attempts

    def uncommitted_records(self) -> list[JournalRecord]:
        """Trailing records of steps a crash left unsealed."""
        committed = self.committed_steps()
        return [r for r in self.records if r.step not in committed]

    def uncommitted_enqueues(self) -> list[EnqueueRecord]:
        """Write-ahead enqueues awaiting recovery (server restores)."""
        return [
            r
            for r in self.uncommitted_records()
            if isinstance(r, EnqueueRecord)
        ]

    def prune_uncommitted(self) -> list[JournalRecord]:
        """Void the crashed step's trailing records; returns them.

        Called at resume so a re-run step's fresh records can never be
        confused with the dead ones it replaces (they share a step
        number, and the new step's commit would otherwise retroactively
        seal the old debris).
        """
        committed = self.committed_steps()
        voided = [r for r in self.records if r.step not in committed]
        if voided:
            self.records = [
                r for r in self.records if r.step in committed
            ]
        return voided

    # ------------------------------------------------------------------ #
    # Exactly-once audit
    # ------------------------------------------------------------------ #

    def audit(self) -> dict:
        """Exactly-once accounting over the whole record stream.

        Returns per-terminal-kind counts, the set of enqueued ids, and
        ``duplicate_terminals`` — ids appearing in more than one
        terminal record, which must be empty for a well-formed journal
        (rejected-at-admission requests legitimately carry a terminal
        with no enqueue; the reverse — an enqueue with two terminals —
        is double accounting).
        """
        terminal_of: dict[int, str] = {}
        duplicates: list[int] = []
        counts = {"served": 0, "expired": 0, "rejected": 0, "abandoned": 0}
        enqueued: set[int] = set()
        for rec in self.records:
            if isinstance(rec, EnqueueRecord):
                enqueued.add(rec.request.request_id)
            elif isinstance(rec, TerminalRecord):
                counts[rec.terminal] += len(rec.requests)
                for r in rec.requests:
                    if r.request_id in terminal_of:
                        duplicates.append(r.request_id)
                    else:
                        terminal_of[r.request_id] = rec.terminal
        return {
            "terminals": counts,
            "unique_terminals": len(terminal_of),
            "enqueued": len(enqueued),
            "duplicate_terminals": sorted(set(duplicates)),
            "records": len(self.records),
            "snapshots": len(self.snapshots),
            "committed_steps": len(self.committed_steps()),
        }

    # ------------------------------------------------------------------ #
    # Report export
    # ------------------------------------------------------------------ #

    def to_jsonl(self) -> str:
        """One JSON object per record (the CI differential artifact)."""
        return "\n".join(
            json.dumps(rec.to_dict(), sort_keys=True) for rec in self.records
        )

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Journal(records={len(self.records)}, "
            f"snapshots={len(self.snapshots)}, "
            f"committed={len(self.committed_steps())})"
        )


def records_from_jsonl(text: str) -> list[JournalRecord]:
    """Rebuild mutation records from a JSONL export (commits excluded).

    The inverse of :meth:`Journal.to_jsonl` for the five mutation
    kinds; commit records carry in-memory-only state and are skipped.
    """
    out: list[JournalRecord] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        d = json.loads(line)
        if d.get("kind") == "commit":
            continue
        out.append(record_from_dict(d))
    return out
