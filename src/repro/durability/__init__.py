"""Crash-consistent serving: snapshot/journal durability plane.

A deterministic, sim-clock-pure checkpoint/restore layer for the
serving loops (see ``docs/recovery.md``):

- :class:`~repro.durability.snapshot.Snapshot` — checkpoint of the full
  serving state at a step boundary: each owner's ``export_state()``
  (live state + watermarks into grow-only ledgers), never a deep copy,
- :class:`~repro.durability.journal.Journal` — write-ahead log of typed
  replay-idempotent mutation records between snapshots,
- :class:`~repro.durability.plane.DurabilityPlane` — the per-run
  orchestrator the loops call (``durability=`` keyword; inert when
  absent, all-default runs are bit-identical to no plane at all),
- :func:`~repro.durability.restore.restore_state` — latest snapshot +
  committed replay → a resumable state, voiding the crashed step's
  trailing records and (in server mode) recovering acknowledged
  write-ahead enqueues with duplicate suppression.
"""

from repro.durability.digest import (
    digest_diff,
    ledger_digest,
    state_digest,
    trace_digest,
)
from repro.durability.journal import Journal, records_from_jsonl
from repro.durability.plane import DurabilityConfig, DurabilityPlane
from repro.durability.records import (
    TERMINAL_RECORD_KINDS,
    CommitRecord,
    DispatchRecord,
    EnqueueRecord,
    JournalRecord,
    RequeueRecord,
    ShedRecord,
    StepState,
    TerminalRecord,
    record_from_dict,
)
from repro.durability.restore import RestoredState, restore_state
from repro.durability.snapshot import LiveState, Snapshot

__all__ = [
    "TERMINAL_RECORD_KINDS",
    "CommitRecord",
    "DispatchRecord",
    "DurabilityConfig",
    "DurabilityPlane",
    "EnqueueRecord",
    "Journal",
    "JournalRecord",
    "LiveState",
    "RequeueRecord",
    "RestoredState",
    "ShedRecord",
    "Snapshot",
    "StepState",
    "TerminalRecord",
    "digest_diff",
    "ledger_digest",
    "record_from_dict",
    "records_from_jsonl",
    "restore_state",
    "state_digest",
    "trace_digest",
]
