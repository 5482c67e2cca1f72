"""The dict-and-scan request queue, kept verbatim as a differential oracle.

``RequestQueue`` must be bit-identical to this class on every observable
output — the equivalence harness (``tests/test_fastpath_equivalence.py``)
and the property fuzz suite (``tests/test_queue_fuzz.py``) enforce it.
"""

from __future__ import annotations

from typing import Sequence

from repro.scheduling.queue import RequestQueue
from repro.types import Request

__all__ = ["_ReferenceRequestQueue"]


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
