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

Fast path (ISSUE 8, ``docs/performance.md``): the queue is *indexed*.
A deadline min-heap with lazy deletion makes :meth:`expire` ``O(k log
n)`` for ``k`` casualties instead of a full ``O(n)`` scan per step; an
arrival min-heap makes :meth:`queue_delay` ``O(1)`` amortised; and
maintained sorted views (by utility for DAS, by arrival for
iteration-level admission) let schedulers stop re-sorting the waiting
set from scratch on every decision.  All of it sits *behind* the
pre-existing public API, and every observable output — contents,
ordering, ledgers, token counts — is bit-identical to the reference
implementation kept below as :class:`_ReferenceRequestQueue` (the
differential oracle of ``tests/test_fastpath_equivalence.py`` and the
property fuzz suite in ``tests/test_queue_fuzz.py``).
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.types import Request
from repro.watermark import mark

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overload.backpressure import QueueLimits, QueuePressure

__all__ = ["RequestQueue", "WaitingView"]


class WaitingView(list):
    """``N_t`` as a list (arrival/insertion order) plus sorted views.

    Plain ``list`` everywhere a list is expected; additionally exposes
    ``by_utility`` (sorted by ``(-utility, request_id)``, DAS's line-7
    order) and ``by_arrival`` (sorted by ``(arrival, request_id)``,
    iteration-level FCFS admission order) without re-sorting when the
    queue's maintained indexes are fresh.

    The sorted views are only valid until the queue next mutates; the
    view detects staleness via the queue's mutation counter and falls
    back to an explicit sort, so a held-too-long view degrades to the
    reference behaviour instead of returning stale order.
    """

    __slots__ = ("_queue", "_now", "_stamp")

    def __init__(self, items, queue: Optional["RequestQueue"], now: float):
        super().__init__(items)
        self._queue = queue
        self._now = now
        self._stamp = queue._mutations if queue is not None else -1

    @property
    def by_utility(self) -> list[Request]:
        """Contents sorted by ``(-utility, request_id)`` (unique order)."""
        q = self._queue
        if q is not None and q._mutations == self._stamp:
            return q._utility_sorted(self._now)
        return sorted(self, key=lambda r: (-r.utility, r.request_id))

    @property
    def by_arrival(self) -> list[Request]:
        """Contents sorted by ``(arrival, request_id)`` (unique order)."""
        q = self._queue
        if q is not None and q._mutations == self._stamp:
            return q._arrival_sorted(self._now)
        return sorted(self, key=lambda r: (r.arrival, r.request_id))


class _SortedIndex:
    """A maintained sorted list of ``(key, request_id, seq)`` entries.

    Removal is *lazy*: an entry is live iff the queue's incarnation map
    still carries its ``(request_id, seq)`` pair, so deletes cost
    nothing here and stale entries are skipped (and periodically
    compacted) at read time.  Activation is lazy too — until the first
    query the index is not maintained at all, so runs that never sort
    by this key pay nothing per operation.
    """

    __slots__ = ("entries", "active")

    def __init__(self) -> None:
        self.entries: list[tuple] = []
        self.active = False

    def insert(self, key: tuple, rid: int, seq: int) -> None:
        if self.active:
            insort(self.entries, (key, rid, seq))

    def activate(self, items: Iterable[tuple[tuple, int, int]]) -> None:
        self.entries = sorted((key, rid, seq) for key, rid, seq in items)
        self.active = True

    def live(self, order: dict[int, int]) -> Iterable[tuple]:
        return (e for e in self.entries if order.get(e[1]) == e[2])

    def compact(self, order: dict[int, int]) -> None:
        if len(self.entries) > 2 * len(order) + 64:
            self.entries = [e for e in self.entries if order.get(e[1]) == e[2]]


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
        # waiting* request id to the seq of its live incarnation, which
        # is what makes lazy deletion sound: an index entry is live iff
        # its (rid, seq) pair is still in _order, so a request that was
        # removed and later requeued can never resurrect stale entries.
        self._seq = 0
        self._order: dict[int, int] = {}
        # (deadline, request_id) min-heap with lazy deletion → expire()
        # pops casualties in O(log n) each instead of scanning the dict.
        self._deadline_heap: list[tuple[float, int]] = []
        # (arrival, request_id) min-heap with lazy deletion → O(1)
        # amortised head-of-line age for the overload controller.
        self._arrival_heap: list[tuple[float, int]] = []
        # Maintained sorted views (lazily activated on first use).
        self._by_utility = _SortedIndex()
        self._by_arrival = _SortedIndex()
        # Bumped on every mutation; WaitingView uses it to detect
        # staleness of its cached sorted views.
        self._mutations = 0

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
        self._by_utility.insert((-request.utility, rid), rid, seq)
        self._by_arrival.insert((request.arrival, rid), rid, seq)
        self._mutations += 1

    def _forget(self, request: Request) -> None:
        """Remove one request from ``_waiting`` and the incarnation map.

        Heap/index entries are *not* touched — they die lazily when a
        read encounters them with a missing or mismatched seq.
        """
        del self._waiting[request.request_id]
        self._order.pop(request.request_id, None)
        self._queued_tokens -= request.length
        self._mutations += 1

    def _utility_sorted(self, now: float) -> list[Request]:
        """Available requests by ``(-utility, request_id)`` (maintained)."""
        idx = self._by_utility
        if not idx.active:
            idx.activate(
                ((-r.utility, rid), rid, self._order[rid])
                for rid, r in self._waiting.items()
            )
        idx.compact(self._order)
        waiting = self._waiting
        return [
            r
            for (_key, rid, _seq) in idx.live(self._order)
            if (r := waiting[rid]).arrival <= now <= r.deadline
        ]

    def _arrival_sorted(self, now: float) -> list[Request]:
        """Available requests by ``(arrival, request_id)`` (maintained)."""
        idx = self._by_arrival
        if not idx.active:
            idx.activate(
                ((r.arrival, rid), rid, self._order[rid])
                for rid, r in self._waiting.items()
            )
        idx.compact(self._order)
        waiting = self._waiting
        return [
            r
            for (_key, rid, _seq) in idx.live(self._order)
            if (r := waiting[rid]).arrival <= now <= r.deadline
        ]

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
        if request.request_id in self._waiting or request.request_id in self.served_ids:
            raise ValueError(f"duplicate request id {request.request_id}")
        self._waiting[request.request_id] = request
        self._queued_tokens += request.length
        self._index(request)

    def extend(self, requests: Iterable[Request]) -> None:
        for r in requests:
            self.add(r)

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

    def waiting(self, now: float) -> "WaitingView":
        """``N_t``: available requests at time ``now`` (arrival order).

        The result is a plain list (insertion order, as before) that
        additionally carries maintained ``by_utility`` / ``by_arrival``
        sorted views for schedulers (see :class:`WaitingView`).
        """
        return WaitingView(
            (
                r
                for r in self._waiting.values()
                if r.arrival <= now <= r.deadline
            ),
            self,
            now,
        )

    def drop(self, requests: Sequence[Request]) -> None:
        """Remove requests as *failures* (recorded in ``expired``)."""
        for r in requests:
            if r.request_id in self._waiting:
                self._forget(r)
                self.expired.append(r)

    def take(self, requests: Sequence[Request]) -> list[Request]:
        """Remove requests from the wait queue *without* a ledger entry.

        The caller owns terminal accounting — which is exactly why bare
        call sites are banned (tcblint TCB008): only the overload
        ledger's :func:`~repro.overload.ledger.shed_requests` may call
        this, and it immediately records every taken request as a
        ``rejected``-class terminal.  Requests no longer waiting are
        skipped; returns the requests actually removed.
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

        ``served_ids`` and ``attempts`` are deliberately absent: they
        are keyed by request id and change per key, so no length can
        watermark them — and every change to them is a journal record,
        which is where a restore gets them back
        (:meth:`~repro.durability.journal.Journal.request_history`).
        """
        return {
            "waiting": list(self._waiting.values()),
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


class _ReferenceRequestQueue(RequestQueue):
    """The pre-ISSUE-8 O(n)-scan queue, kept verbatim as a test oracle.

    Overrides every index-accelerated method with the original
    full-scan implementation (the indexes stay inert).  The fast path
    must be bit-identical to this class on every observable output —
    the differential equivalence harness and the property fuzz suite
    enforce it.  Not part of the public API; never use it in serving
    code.
    """

    def add(self, request: Request) -> None:
        if request.request_id in self._waiting or request.request_id in self.served_ids:
            raise ValueError(f"duplicate request id {request.request_id}")
        self._waiting[request.request_id] = request
        self._queued_tokens += request.length

    def expire(self, now: float) -> list[Request]:
        dead = [r for r in self._waiting.values() if r.deadline < now]
        for r in dead:
            del self._waiting[r.request_id]
            self._queued_tokens -= r.length
        self.expired.extend(dead)
        return dead

    def waiting(self, now: float) -> list[Request]:  # type: ignore[override]
        return [
            r
            for r in self._waiting.values()
            if r.arrival <= now <= r.deadline
        ]

    def drop(self, requests: Sequence[Request]) -> None:
        for r in requests:
            if r.request_id in self._waiting:
                del self._waiting[r.request_id]
                self._queued_tokens -= r.length
                self.expired.append(r)

    def take(self, requests: Sequence[Request]) -> list[Request]:
        taken: list[Request] = []
        for r in requests:
            if r.request_id in self._waiting:
                del self._waiting[r.request_id]
                self._queued_tokens -= r.length
                taken.append(r)
        return taken

    def remove_served(self, requests: Sequence[Request]) -> None:
        for r in requests:
            if r.request_id not in self._waiting:
                raise KeyError(f"request {r.request_id} not in queue")
            del self._waiting[r.request_id]
            self._queued_tokens -= r.length
            self.served_ids.add(r.request_id)

    def abandon(self, requests: Sequence[Request]) -> None:
        for r in requests:
            if self._waiting.pop(r.request_id, None) is not None:
                self._queued_tokens -= r.length
            self.abandoned.append(r)

    def requeue(self, requests: Sequence[Request]) -> None:
        for r in requests:
            self.served_ids.discard(r.request_id)
            if r.request_id not in self._waiting:
                self._waiting[r.request_id] = r
                self._queued_tokens += r.length

    def queue_delay(self, now: float) -> float:
        if not self._waiting:
            return 0.0
        oldest = min(r.arrival for r in self._waiting.values())
        return max(0.0, now - oldest)
