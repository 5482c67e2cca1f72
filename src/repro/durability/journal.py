"""Journal: snapshots plus the online server's records since them.

:class:`~repro.durability.snapshot.Snapshot` checkpoints are the whole
recovery state of a simulator run; its records list stays empty.  A
:class:`~repro.serving.server.TCBServer` also appends the records of
what it told its clients (``repro.durability.records``), and a restore
folds those written since the latest snapshot into it.
:meth:`Journal.audit` checks the exactly-once side of that contract:
no request id is named by two served records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.durability.records import JournalRecord, TerminalRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.durability.snapshot import Snapshot

__all__ = ["Journal"]


class Journal:
    """Append-only record log with interleaved snapshots."""

    def __init__(self) -> None:
        self.records: list[JournalRecord] = []
        self.snapshots: list["Snapshot"] = []

    def append(self, record: JournalRecord) -> None:
        self.records.append(record)

    def add_snapshot(self, snapshot: "Snapshot") -> None:
        self.snapshots.append(snapshot)

    def clear(self) -> None:
        self.records.clear()
        self.snapshots.clear()

    @property
    def latest_snapshot(self) -> Optional["Snapshot"]:
        return self.snapshots[-1] if self.snapshots else None

    def since(self, step: int) -> list[JournalRecord]:
        """Records of steps ``>= step``, in journal order."""
        return [r for r in self.records if r.step >= step]

    def audit(self) -> dict:
        """Exactly-once accounting over the whole record stream.

        ``duplicate_terminals`` lists the ids named by more than one
        served record; a well-formed journal has none.
        """
        served: set[int] = set()
        duplicates: set[int] = set()
        for rec in self.records:
            if isinstance(rec, TerminalRecord):
                for r in rec.requests:
                    (duplicates if r.request_id in served else served).add(r.request_id)
        return {
            "duplicate_terminals": sorted(duplicates),
            "records": len(self.records),
            "snapshots": len(self.snapshots),
        }

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Journal(records={len(self.records)}, snapshots={len(self.snapshots)})"
