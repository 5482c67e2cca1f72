"""Journal records: what an online server told its clients.

The simulators journal nothing: a restore thaws the latest snapshot and
the resumed loop re-executes from it, which reproduces every transition
after it deterministically.  The online
:class:`~repro.serving.server.TCBServer` cannot re-execute its clients,
so it journals the two facts a client was told between snapshots:

- an :class:`EnqueueRecord` per acknowledged submit, written before the
  id is returned, carrying the full request (an online submit exists
  nowhere else);
- a served :class:`TerminalRecord` per delivered batch of responses.

Requests ride in the records as the frozen value objects themselves,
so a restored queue holds requests that compare (and hash) equal to the
originals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.types import Request

__all__ = ["JournalRecord", "EnqueueRecord", "TerminalRecord"]


@dataclass(frozen=True)
class JournalRecord:
    """Base record: every record belongs to exactly one serving step."""

    step: int


@dataclass(frozen=True)
class EnqueueRecord(JournalRecord):
    """A submit was admitted to the wait queue and acknowledged."""

    request: Request = None  # type: ignore[assignment]


@dataclass(frozen=True)
class TerminalRecord(JournalRecord):
    """Responses for *requests* were delivered, finished at ``finish``.

    ``served`` is the only terminal a client is told about; every other
    outcome after the latest snapshot re-occurs when the restored server
    runs on.
    """

    terminal: str = "served"
    requests: tuple[Request, ...] = ()
    finish: float = 0.0

    def __post_init__(self) -> None:
        if self.terminal != "served":
            raise ValueError(
                f"journal terminal records are 'served' only, got {self.terminal!r}"
            )
