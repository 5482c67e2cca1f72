"""DAS — the Online Deadline-Aware Scheduling algorithm (Algorithm 1).

For each batch row the algorithm:

1. If everything still waiting fits in the row, takes it all (line 4–5).
2. Otherwise sorts the candidates by utility ``v_n = 1/l_n``
   non-increasingly into ``Ñ_t`` (line 7), finds the saturating prefix
   size ``s_tk`` (line 8), and takes the first ``p_tk = η·s_tk`` as the
   *utility-dominant set* ``N^U_t`` (lines 9–10).
3. Builds the *deadline-aware set* ``N^D_t`` — remaining candidates with
   utility ≥ ``q · v̄(N^U_t)`` — and adds them earliest-deadline-first
   while they fit (lines 11–12).
4. Back-fills any remaining capacity greedily from the rest (lines
   13–15).

Theorem 5.1: the algorithm is ``ηq/(ηq+1)``-competitive; with the paper's
``η = q = ½`` that is ⅕.  ``tests/test_theory.py`` checks the bound
against exact offline optima on random instances.

Fast path (``docs/performance.md``): the line-7 sort is a *total* order
(utility with a request-id tie-break), and removing a row's chosen
requests preserves that order — so one sort per decision serves every
row.  :meth:`DASScheduler.select` takes that order as flat columns
(:func:`~repro.scheduling.queue.utility_columns`: requests, lengths,
negated utilities, and one earliest-deadline-first ordering of the whole
set) and never touches a request object inside the row loop: chosen
requests are cleared in an ``alive`` byte mask, the saturating prefix
walks from a moving head pointer, the ``q·v̄`` threshold is a ``bisect``
on the utility column, and ``N^D_t`` is the live slice up to that cut
read off the precomputed EDF ordering — no per-row sort.  The original
re-sort-per-row implementation is the differential oracle in
``tests/oracles/``; ``tests/test_das_fastpath.py`` and the equivalence
harness compare against it bit for bit.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from repro.config import BatchConfig, SchedulerConfig
from repro.scheduling.base import Scheduler, SchedulingDecision
from repro.scheduling.queue import utility_columns
from repro.types import Request

__all__ = ["DASScheduler", "das_row_parts"]


def das_row_parts(
    candidates: Sequence[Request],
    row_length: int,
    eta: float,
    q: float,
) -> tuple[list[Request], list[Request], list[Request]]:
    """Split sorted-by-utility candidates into (N^U, N^D, rest) for one row.

    ``candidates`` must already be sorted by utility non-increasingly.
    Exposed separately because Algorithm 2 needs the utility-dominant set
    to derive its slot size, and because the theory tests exercise it
    directly.

    Fast path: the saturating prefix ``s_tk`` (line 8) comes from a
    binary search over the length prefix sums (they are strictly
    increasing, lengths being ≥ 1), and the ``N^D`` threshold split is
    a second binary search — the candidates are utility-sorted, so
    ``utility ≥ q·v̄`` holds for exactly a prefix of ``candidates[p:]``.
    Bit-identical to the plain-loop oracle in ``tests/oracles/`` (tested).
    """
    # Line 8: s_tk = saturating prefix size, by binary search on the
    # strictly-increasing prefix sums.
    prefix = list(accumulate(r.length for r in candidates))
    s = bisect_right(prefix, row_length)
    if s == 0:
        # Even the highest-utility request alone does not fit (it is
        # longer than L) — skip utility-dominant selection entirely.
        return [], [], list(candidates)

    # Line 9: p_tk = η · s_tk (at least one task so v̄ is defined).
    p = max(1, math.floor(eta * s))
    utility_dominant = list(candidates[:p])

    v_bar = sum(r.utility for r in utility_dominant) / len(utility_dominant)
    threshold = q * v_bar

    # u ≥ threshold  ⇔  -u ≤ -threshold, and the negated utilities are
    # non-decreasing under the sort contract — so N^D is the slice up
    # to the bisect cut (ties included, exactly like the >= loop).
    neg_utilities = [-r.utility for r in candidates]
    cut = bisect_right(neg_utilities, -threshold, p)
    # Line 12: deadline-aware set is consumed earliest-deadline-first.
    deadline_aware = sorted(
        candidates[p:cut], key=lambda r: (r.deadline, r.request_id)
    )
    rest = list(candidates[cut:])
    return utility_dominant, deadline_aware, rest


class DASScheduler(Scheduler):
    """Algorithm 1.  ``record_parts=True`` keeps per-row (N^U, N^D) for
    Algorithm 2 and for the theory tests."""

    name = "das"

    def __init__(
        self,
        batch: BatchConfig,
        config: Optional[SchedulerConfig] = None,
        *,
        record_parts: bool = False,
    ):
        super().__init__(batch)
        self.config = config or SchedulerConfig()
        self.record_parts = record_parts
        self.last_parts: list[tuple[list[Request], list[Request]]] = []

    def select(
        self, waiting: Sequence[Request], now: float = 0.0
    ) -> SchedulingDecision:
        start = time.perf_counter()
        L = self.batch.row_length
        # Lines 4–5 on row 0, ahead of any column construction (a
        # shallow queue never pays for one): everything fits, taken in
        # arrival order.
        servable = [r for r in waiting if r.length <= L]
        total = sum(r.length for r in servable)
        if not servable:
            rows, parts = [], []
        elif total <= L:
            rows, parts = [servable], [(list(servable), [])]
        else:
            rows, parts = self._fill_rows(waiting, len(servable), total)

        if self.record_parts:
            self.last_parts = parts
        decision = SchedulingDecision(
            rows=rows,
            # Per-decision DAS observability (repro.obs): how the
            # selection split between Algorithm 1's two mechanisms.
            info={
                "scheduler": self.name,
                "eta": self.config.eta,
                "q": self.config.q,
                "num_utility_dominant": sum(len(u) for u, _ in parts),
                "num_deadline_aware": sum(len(d) for _, d in parts),
            },
        )
        decision.runtime = time.perf_counter() - start
        return decision

    def _fill_rows(
        self, waiting: Sequence[Request], live: int, total: int
    ) -> tuple[list[list[Request]], list[tuple[list[Request], list[Request]]]]:
        """Lines 6–15 for an oversubscribed waiting set, on columns.

        ``live`` requests of ``total`` tokens are servable (no longer
        than a row).  Line 7's sort happens once, inside
        :func:`utility_columns`; a chosen request is cleared in
        ``alive`` and the order of the survivors is untouched.  Returns
        the rows and their (N^U, N^D) parts.
        """
        eta, q = self.config.eta, self.config.q
        L = self.batch.row_length
        reqs, lengths, neg_u, edf_order = utility_columns(waiting)
        n = len(reqs)
        len_col = np.array(lengths, dtype=np.int64)
        # One buffer, two views: scalar reads and writes go through the
        # bytearray (cheap in Python), whole-column tests through NumPy.
        alive = bytearray(b"\x01") * n if live == n else bytearray(x <= L for x in lengths)
        alive_col = np.frombuffer(alive, dtype=np.bool_)
        # Live requests per length and the shortest live length: once a
        # row's spare capacity is below it nothing further can fit.  The
        # extra last entry stops the pointer when nothing is left.
        live_of_length = np.bincount(len_col[alive_col], minlength=L + 2).tolist()
        live_of_length[L + 1] = 1
        shortest = 1
        head = 0
        rows: list[list[Request]] = []
        parts: list[tuple[list[Request], list[Request]]] = []

        def take(order: np.ndarray, chosen: list[int], spare: int) -> int:
            """Greedily move what fits from *order* to *chosen*, in order.

            Called with ``spare >= shortest``; returns as soon as that
            stops holding, which is usually within the first chunk — so
            the positions are unboxed a chunk at a time.
            """
            nonlocal shortest
            for lo in range(0, len(order), 64):
                for i in order[lo : lo + 64].tolist():
                    length = lengths[i]
                    if length <= spare:
                        chosen.append(i)
                        spare -= length
                        alive[i] = 0
                        live_of_length[length] -= 1
                        while not live_of_length[shortest]:
                            shortest += 1
                        if spare < shortest:
                            return spare
            return spare

        for _k in range(self.batch.num_rows):
            if live == 0:
                break
            if total <= L:
                # Lines 4–5 on a later row: the survivors, in utility
                # order (as a per-row re-sort would leave them).
                survivors = [reqs[i] for i in np.flatnonzero(alive_col).tolist()]
                rows.append(survivors)
                parts.append((list(survivors), []))
                break

            # Line 8: saturating prefix s_tk over the live entries, from
            # the first live one (at most one row's worth of steps).
            while not alive[head]:
                head += 1
            prefix: list[int] = []
            acc = 0
            for i in range(head, n):
                if alive[i]:
                    acc += lengths[i]
                    if acc > L:
                        break
                    prefix.append(i)
            # Line 9: p_tk = η·s_tk, at least one so v̄ is defined
            # (s_tk ≥ 1: every live request fits an empty row).
            n_u = prefix[: max(1, math.floor(eta * len(prefix)))]
            after_u = n_u[-1] + 1
            # Summed left to right in Python: bit-equal to the oracle.
            v_bar = sum([-neg_u[i] for i in n_u]) / len(n_u)
            # N^D (line 11) is a prefix of the utility-sorted tail:
            # u ≥ q·v̄ ⇔ -u ≤ -q·v̄ and -u is non-decreasing (the bisect
            # keys on values, so cleared entries don't perturb it).
            cut = bisect_right(neg_u, -(q * v_bar), after_u)

            # The utility-dominant prefix fits by construction (p ≤ s).
            chosen = list(n_u)
            spare = L
            for i in n_u:
                spare -= lengths[i]
                alive[i] = 0
                live_of_length[lengths[i]] -= 1
            while not live_of_length[shortest]:
                shortest += 1
            num_d = 0
            if spare >= shortest and cut > after_u:
                # Lines 11–12: N^D, earliest deadline first.  Only a live
                # request no longer than the spare capacity can be taken,
                # now or later in this row: the others are left out of
                # the walk up front.  (Nothing before N^U's end is live.)
                n_d = edf_order[(alive_col & (len_col <= spare))[edf_order]]
                spare = take(n_d[n_d < cut], chosen, spare)
                num_d = len(chosen) - len(n_u)
            if spare >= shortest and cut < n:
                # Lines 13–15: back-fill from the rest, in utility order.
                rest = np.flatnonzero(alive_col[cut:] & (len_col[cut:] <= spare))
                spare = take(rest + cut, chosen, spare)

            row = [reqs[i] for i in chosen]
            rows.append(row)
            parts.append((row[: len(n_u)], row[len(n_u) : len(n_u) + num_d]))
            live -= len(chosen)
            total -= L - spare
        return rows, parts
