"""The serving system's wait queue with deadline expiry.

Holds requests that have arrived but not been scheduled.  ``waiting(t)``
returns ``N_t`` exactly as §5.2 defines it: arrived, unexpired,
unscheduled.  Expired requests are recorded (they count as utility-zero
failures in the metrics).

Fault recovery adds two more terminal ledgers beyond ``expired``:
``abandoned`` (given up by the retry policy after a failed batch) and
per-request ``attempts`` counts that bound how often a request may be
requeued.  Every request ends in exactly one ledger — served, expired,
or abandoned — which is what the serving loops' conservation invariant
checks.

Fast path (``docs/performance.md``): the queue is *indexed* where an
index pays for itself.  A deadline min-heap with lazy deletion makes
:meth:`expire` ``O(k log n)`` for ``k`` casualties instead of a full
``O(n)`` scan per step, and an arrival min-heap makes
:meth:`queue_delay` ``O(1)`` amortised.  The *sorted* orders schedulers
need (by utility for DAS, by arrival or utility for iteration-level
admission) are not maintained: :meth:`waiting` returns ``N_t`` as a
plain list and each reader lowers it to flat columns with one
``np.lexsort`` per decision (:func:`utility_columns` for DAS), which
costs less than keeping an insertion-sorted index current through every
add (a saturated run makes ~300 adds per decision).  All of it sits
*behind* the public API, and every observable output — contents,
ordering, ledgers, token counts — is bit-identical to the dict-and-scan
queue kept as the differential oracle in ``tests/oracles/``
(``tests/test_fastpath_equivalence.py``, ``tests/test_queue_fuzz.py``).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from repro.types import Request
from repro.watermark import mark

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overload.backpressure import QueueLimits, QueuePressure

__all__ = ["RequestQueue", "UtilityColumns", "utility_columns"]


class UtilityColumns(NamedTuple):
    """A waiting set in DAS's line-7 order, lowered to aligned columns.

    Position ``i`` of every column is the request with the ``i``-th
    highest utility (ties broken by request id, so the order is total).
    What :meth:`DASScheduler.select` walks instead of request objects.
    """

    requests: list[Request]
    lengths: list[int]
    #: ``-utility`` per position: non-decreasing, so ``bisect`` works.
    neg_utilities: list[float]
    #: Positions in earliest-deadline-first order (ties by request id).
    edf_order: np.ndarray


def utility_columns(requests: Sequence[Request]) -> UtilityColumns:
    """Lower *requests* (any order) to :class:`UtilityColumns`.

    One pass over the objects per column, then two ``np.lexsort`` calls:
    no key tuples, no Python-level comparisons.
    """
    ids = np.array([r.request_id for r in requests], dtype=np.int64)
    neg_u = np.array([-r.utility for r in requests], dtype=np.float64)
    order = np.lexsort((ids, neg_u))
    ids = ids[order]
    by_utility = [requests[i] for i in order.tolist()]
    deadlines = np.array([r.deadline for r in by_utility], dtype=np.float64)
    return UtilityColumns(
        requests=by_utility,
        lengths=[r.length for r in by_utility],
        neg_utilities=neg_u[order].tolist(),
        edf_order=np.lexsort((ids, deadlines)),
    )


class RequestQueue:
    """FIFO-arrival queue with deadline-based expiry (indexed fast path)."""

    def __init__(self) -> None:
        self._waiting: dict[int, Request] = {}
        self.expired: list[Request] = []
        self.abandoned: list[Request] = []
        self.served_ids: set[int] = set()
        # request_id -> number of failed serve attempts (retry budget).
        self.attempts: dict[int, int] = {}
        # Incremental sum of waiting request lengths; kept in lockstep
        # with _waiting so pressure() is O(1) per scheduling step.
        self._queued_tokens = 0
        # ---- fast-path indexes (never observable through the API) ----
        # Monotone insertion counter; _order maps each *currently
        # waiting* request id to the seq of its insertion, so expire()
        # can report heap-ordered casualties in insertion order.
        self._seq = 0
        self._order: dict[int, int] = {}
        # (deadline, request_id) min-heap with lazy deletion → expire()
        # pops casualties in O(log n) each instead of scanning the dict.
        self._deadline_heap: list[tuple[float, int]] = []
        # (arrival, request_id) min-heap with lazy deletion → O(1)
        # amortised head-of-line age for the overload controller.
        self._arrival_heap: list[tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._waiting)

    def __contains__(self, request_id: int) -> bool:
        """Whether *request_id* is currently waiting (O(1))."""
        return request_id in self._waiting

    def waiting_ids(self) -> list[int]:
        """All queued request ids in insertion (arrival) order.

        Unlike :meth:`waiting` this does not filter by time — it is the
        raw queue content, used by the durability plane to fingerprint
        and rebuild queue state without reaching into ``_waiting``.
        """
        return list(self._waiting)

    @property
    def queued_tokens(self) -> int:
        """Total prompt tokens currently waiting."""
        return self._queued_tokens

    # ------------------------------------------------------------------ #
    # Internal index bookkeeping
    # ------------------------------------------------------------------ #

    def _index(self, request: Request) -> None:
        """Register one inserted request with every index."""
        seq = self._seq
        self._seq = seq + 1
        rid = request.request_id
        self._order[rid] = seq
        heapq.heappush(self._deadline_heap, (request.deadline, rid))
        heapq.heappush(self._arrival_heap, (request.arrival, rid))

    def _forget(self, request: Request) -> None:
        """Remove one request from ``_waiting`` and the insertion map.

        Heap entries are *not* touched — they die lazily when a read
        encounters them with no (or a different) waiting request.
        """
        del self._waiting[request.request_id]
        self._order.pop(request.request_id, None)
        self._queued_tokens -= request.length

    def _maybe_compact_heaps(self) -> None:
        """Bound lazy-deletion debris under heavy requeue churn."""
        live = len(self._waiting)
        if len(self._deadline_heap) > 4 * live + 64:
            self._deadline_heap = [
                (r.deadline, rid) for rid, r in self._waiting.items()
            ]
            heapq.heapify(self._deadline_heap)
        if len(self._arrival_heap) > 4 * live + 64:
            self._arrival_heap = [
                (r.arrival, rid) for rid, r in self._waiting.items()
            ]
            heapq.heapify(self._arrival_heap)

    # ------------------------------------------------------------------ #
    # Public API (identical observable behaviour to the reference)
    # ------------------------------------------------------------------ #

    def add(self, request: Request) -> None:
        self.extend((request,))

    def extend(self, requests: Iterable[Request]) -> None:
        """Add *requests* in order: one loop over the indexes for all.

        Raises at the first duplicate id, with the requests before it
        added (as one :meth:`add` each would have left the queue).
        """
        waiting, served, order = self._waiting, self.served_ids, self._order
        deadline_heap, arrival_heap = self._deadline_heap, self._arrival_heap
        seq, tokens = self._seq, 0
        try:
            for r in requests:
                rid = r.request_id
                if rid in waiting or rid in served:
                    raise ValueError(f"duplicate request id {rid}")
                waiting[rid] = r
                order[rid] = seq
                seq += 1
                tokens += r.length
                heapq.heappush(deadline_heap, (r.deadline, rid))
                heapq.heappush(arrival_heap, (r.arrival, rid))
        finally:
            self._seq = seq
            self._queued_tokens += tokens

    def first_clash(self, requests: Sequence[Request]) -> int:
        """Position of the first of *requests* whose id the queue holds or
        has served, or that repeats an earlier one's; ``len(requests)``
        when there is none."""
        ids = [r.request_id for r in requests]
        distinct = set(ids)
        waiting, served = self._waiting, self.served_ids
        if (
            len(distinct) == len(ids)
            and waiting.keys().isdisjoint(distinct)
            and served.isdisjoint(distinct)
        ):
            return len(ids)
        seen: set[int] = set()
        for k, rid in enumerate(ids):
            if rid in seen or rid in waiting or rid in served:
                return k
            seen.add(rid)
        return len(ids)

    def expire(self, now: float) -> list[Request]:
        """Drop requests whose deadline has passed; returns the casualties.

        A request whose deadline is exactly ``now`` is still schedulable
        (Eq. 12's interval is closed).  Casualties come off the deadline
        min-heap — O(log n) each plus any lazily-deleted debris — and
        are returned in insertion order, exactly as the reference
        full-scan produced them.
        """
        heap = self._deadline_heap
        waiting = self._waiting
        dead: list[tuple[int, Request]] = []
        while heap and heap[0][0] < now:
            deadline, rid = heapq.heappop(heap)
            r = waiting.get(rid)
            if r is None or r.deadline != deadline:
                continue  # lazily-deleted debris from an earlier removal
            dead.append((self._order[rid], r))
            self._forget(r)
        # The dict iterates in insertion order, so the reference scan
        # reported casualties in insertion order; sort by seq to match.
        dead.sort()
        casualties = [r for _seq, r in dead]
        self.expired.extend(casualties)
        self._maybe_compact_heaps()
        return casualties

    def waiting(self, now: float) -> list[Request]:
        """``N_t``: available requests at time ``now`` (insertion order),
        as a fresh list that each reader lowers to the columns it walks."""
        return [r for r in self._waiting.values() if r.arrival <= now <= r.deadline]

    def drop(self, requests: Sequence[Request]) -> None:
        """Remove requests as *failures* (recorded in ``expired``)."""
        for r in requests:
            if r.request_id in self._waiting:
                self._forget(r)
                self.expired.append(r)

    def take(self, requests: Sequence[Request]) -> list[Request]:
        """Remove requests from the wait queue *without* a ledger entry.

        The caller owns terminal accounting: the one live caller,
        :meth:`repro.serving.lifecycle.Lifecycle.expire_and_shed`,
        records every taken request as a ``rejected``-class terminal
        at once.  Requests no longer waiting are skipped; returns the
        requests actually removed.
        """
        taken: list[Request] = []
        for r in requests:
            if r.request_id in self._waiting:
                self._forget(r)
                taken.append(r)
        return taken

    def remove_served(self, requests: Sequence[Request]) -> None:
        for r in requests:
            if r.request_id not in self._waiting:
                raise KeyError(f"request {r.request_id} not in queue")
            self._forget(r)
            self.served_ids.add(r.request_id)

    # ------------------------------------------------------------------ #
    # Fault-recovery bookkeeping
    # ------------------------------------------------------------------ #

    def note_attempt(self, requests: Sequence[Request]) -> None:
        """Record one failed serve attempt per request (retry budget)."""
        for r in requests:
            self.attempts[r.request_id] = self.attempts.get(r.request_id, 0) + 1

    def abandon(self, requests: Sequence[Request]) -> None:
        """Give up on requests (retry budget / slack exhausted).

        Unlike :meth:`drop`, abandoned requests are kept in their own
        ledger so metrics can distinguish fault casualties from plain
        deadline expiry.
        """
        for r in requests:
            if r.request_id in self._waiting:
                self._forget(r)
            self.abandoned.append(r)

    def requeue(self, requests: Sequence[Request]) -> None:
        """Return previously dispatched requests to the wait queue.

        Used by iteration-level serving when a crash or OOM evicts
        resident requests that had already been removed via
        :meth:`remove_served`; batch-level loops never need this because
        failed requests only leave the queue on success.
        """
        for r in requests:
            self.served_ids.discard(r.request_id)
            if r.request_id not in self._waiting:
                self._waiting[r.request_id] = r
                self._queued_tokens += r.length
                self._index(r)

    # ------------------------------------------------------------------ #
    # Durability export / apply (see repro.durability.snapshot)
    # ------------------------------------------------------------------ #

    def export_state(self) -> dict:
        """Checkpointable state: the waiting set + watermarked ledgers.

        ``attempts`` (the retry budget) is kept for the waiting requests
        only (a snapshot adds the iteration-level residents'), and
        ``served_ids`` is left to the restore, which rebuilds it from the
        served ledger and the residents.  Both are keyed by request id,
        so no length can watermark them, and what they hold about ended
        requests is never read again.
        """
        attempts = self.attempts
        return {
            "waiting": list(self._waiting.values()),
            "attempts": {rid: attempts[rid] for rid in self._waiting if rid in attempts},
            "expired": mark(self.expired),
            "abandoned": mark(self.abandoned),
        }

    def apply_state(self, state: dict) -> None:
        """Become the queue a thawed :meth:`export_state` describes.

        The waiting set is re-added in its exported (insertion) order,
        which rebuilds every index; the ledgers are adopted as given.
        """
        self.__init__()
        self.extend(state["waiting"])
        self.attempts = state["attempts"]
        self.expired = state["expired"]
        self.abandoned = state["abandoned"]

    # ------------------------------------------------------------------ #
    # Overload signals
    # ------------------------------------------------------------------ #

    def pressure(self, limits: "QueueLimits") -> "QueuePressure":
        """Current occupancy lowered against *limits* (typed backpressure)."""
        from repro.overload.backpressure import QueuePressure

        return QueuePressure(
            queued_requests=len(self._waiting),
            queued_tokens=self._queued_tokens,
            limits=limits,
        )

    def queue_delay(self, now: float) -> float:
        """Age of the oldest waiting request (0.0 when empty).

        The degradation controller's primary signal: under sustained
        overload head-of-line age grows without bound long before
        utilisation metrics look alarming.  Served by the arrival
        min-heap: lazily-deleted entries are discarded until the top is
        a live request, so a request that left the queue can never
        resurrect head-of-line age (staleness-tested in
        ``tests/test_queue_fuzz.py``).
        """
        heap = self._arrival_heap
        waiting = self._waiting
        while heap:
            arrival, rid = heap[0]
            r = waiting.get(rid)
            if r is None or r.arrival != arrival:
                heapq.heappop(heap)  # debris from a lazy deletion
                continue
            return max(0.0, now - arrival)
        return 0.0
