"""Crash-consistent serving: the snapshot durability plane.

A deterministic, sim-clock-pure checkpoint/restore layer for the
serving loops (see ``docs/recovery.md``):

- :class:`~repro.durability.snapshot.Snapshot` — checkpoint of the full
  serving state at a step boundary: each owner's ``export_state()``
  (live state + watermarks into grow-only ledgers), never a deep copy,
- :class:`~repro.durability.journal.Journal` — the snapshots, plus the
  online server's records of what it told its clients since them,
- :class:`~repro.durability.plane.DurabilityPlane` — the per-run
  orchestrator the loops call (``durability=`` keyword; inert when
  absent, all-default runs are bit-identical to no plane at all),
- :func:`~repro.durability.restore.restore_state` — the latest
  snapshot (plus, for a server, its acknowledged submits and delivered
  responses since) → a state the loop resumes from by re-executing.
"""

from repro.durability.digest import (
    digest_diff,
    ledger_digest,
    state_digest,
    trace_digest,
)
from repro.durability.journal import Journal
from repro.durability.plane import DurabilityConfig, DurabilityPlane
from repro.durability.records import EnqueueRecord, JournalRecord, TerminalRecord
from repro.durability.restore import RestoredState, restore_state
from repro.durability.snapshot import LiveState, Snapshot

__all__ = [
    "DurabilityConfig",
    "DurabilityPlane",
    "EnqueueRecord",
    "Journal",
    "JournalRecord",
    "LiveState",
    "RestoredState",
    "Snapshot",
    "TerminalRecord",
    "digest_diff",
    "ledger_digest",
    "restore_state",
    "state_digest",
    "trace_digest",
]
