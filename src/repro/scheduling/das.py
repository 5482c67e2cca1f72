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
row.  :class:`DASFill` takes that order as flat columns
(:func:`~repro.scheduling.queue.utility_columns`: requests, lengths,
negated utilities, and one earliest-deadline-first ordering of the whole
set) and never touches a request object inside the row loop: chosen
requests are cleared in an ``alive`` byte mask, the saturating prefix
walks from a moving head pointer, the ``q·v̄`` threshold is a ``bisect``
on the utility column, and ``N^D_t`` is the live slice up to that cut
read off the precomputed EDF ordering — no per-row sort.  A pool deeper
than :data:`SHALLOW_POOL` filters the N^D and back-fill candidates with
NumPy masks; a shallower one (a tenant's share of a shallow queue) walks
the lowered lists, where a dozen array operations per row would cost
more than the walk.  The loop is resumable: :meth:`DASScheduler.select`
opens a fill and takes up to ``B`` rows at once, tenant fair share opens
one per tenant and pulls a row whenever that tenant wins one, and both
pay for one lowering.  The
original re-sort-per-row implementation is the differential oracle in
``tests/oracles/``; ``tests/test_das_fastpath.py`` and the equivalence
harness compare against it bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, compress, islice
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.config import BatchConfig, SchedulerConfig
from repro.scheduling.base import RowFill, Scheduler, SchedulingDecision
from repro.scheduling.queue import utility_columns
from repro.types import Request

__all__ = ["DASFill", "DASScheduler", "SHALLOW_POOL", "das_row_parts"]

#: Largest pool whose N^D and back-fill walks run over the lowered Python
#: lists.  Per row, the masked walk pays about a dozen NumPy calls of
#: ~1 µs each whatever the pool size, and the list walk visits every
#: live candidate, so the list walk wins on small pools and loses on deep
#: ones.  Timed on one DAS decision per pool depth (16×100 and 64×100
#: batches, requests from the ``sim_saturated`` trace): the two are
#: within 1–2% of each other at 128–144, the list walk is 5–30% faster
#: below 112, and the masked one 5–70% faster above 192
#: (``docs/performance.md`` §11).  The masks also bound the deep queue's
#: work: their walk stops at the shortest live request.
SHALLOW_POOL = 128


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


class DASFill(RowFill):
    """Algorithm 1's row loop (lines 3–15), resumable.

    The waiting set is lowered once — line 7's sort inside
    :func:`utility_columns`, the ``alive`` mask, the live-length counts,
    the head pointer — by the first row that needs it, and every later
    row carries on from there: a chosen request is cleared in ``alive``
    and the order of the survivors is untouched, so the next row is what
    a fresh one-row select over the survivors would fill.  ``parts``
    collects each row's (N^U, N^D).
    """

    def __init__(self, waiting: Sequence[Request], L: int, eta: float, q: float):
        self.parts: list[tuple[list[Request], list[Request]]] = []
        # [whether the next row is the first of its select] (see
        # next_rows).  A cell the row generator shares instead of holding
        # ``self``: a suspended generator that referred back to its fill
        # would be a reference cycle, and a deep queue's columns would
        # wait for the cyclic collector instead of dying with the decision.
        self._opening = [True]
        self._rows = self._fill(waiting, L, eta, q, self._opening)

    def next_rows(self, max_rows: int) -> SchedulingDecision:
        """What one ``select`` of ``max_rows`` rows decides over the
        requests not yet handed out (rows only).

        Lines 4–5 differ by position, and both forms are pinned by the
        goldens: a select whose *first* row takes everything that is
        left takes it in waiting order, a later row in utility order.
        """
        rows = []
        opening = self._opening
        opening[0] = True
        for row, part in islice(self._rows, max_rows):
            rows.append(row)
            self.parts.append(part)
            opening[0] = False
        return SchedulingDecision(rows=rows)

    def _next_row(self) -> SchedulingDecision:
        return self.next_rows(1)

    def pull(self) -> tuple[list[Request], Optional[int], Sequence[Request]]:
        """The next row straight off the generator, a fresh select's first."""
        self._opening[0] = True
        nxt = next(self._rows, None)
        if nxt is None:
            return [], None, ()
        self.parts.append(nxt[1])
        return nxt[0], None, ()

    @staticmethod
    def _fill(
        waiting: Sequence[Request], L: int, eta: float, q: float, opening: list[bool]
    ) -> Iterator[tuple[list[Request], tuple[list[Request], list[Request]]]]:
        """Yield ``(row, (N^U, N^D))`` until nothing servable is left."""
        # Lines 4–5 ahead of any column construction (a shallow queue
        # never pays for one).
        servable = [r for r in waiting if r.length <= L]
        live = len(servable)
        total = sum(r.length for r in servable)
        if not live:
            return
        if total <= L:
            yield servable, (list(servable), [])
            return

        reqs, lengths, neg_u, edf_order = utility_columns(waiting)
        n = len(reqs)
        alive = bytearray(b"\x01") * n if live == n else bytearray(x <= L for x in lengths)
        # Live requests per length and the shortest live length: once a
        # row's spare capacity is below it nothing further can fit.  The
        # extra last entry stops the pointer when nothing is left.
        masked = n > SHALLOW_POOL
        if masked:
            len_col = np.array(lengths, dtype=np.int64)
            # One buffer, two views: scalar reads and writes go through
            # the bytearray (cheap in Python), whole-column tests through
            # NumPy.
            alive_col = np.frombuffer(alive, dtype=np.bool_)
            live_of_length = np.bincount(len_col[alive_col], minlength=L + 2).tolist()
        else:
            edf = edf_order.tolist()
            live_of_length = [0] * (L + 2)
            for length in compress(lengths, alive):
                live_of_length[length] += 1
        live_of_length[L + 1] = 1
        shortest = 1
        head = 0

        def take(chunks: Iterable[Iterable[int]], chosen: list[int], spare: int) -> int:
            """Greedily move what fits from *chunks* to *chosen*, in order.

            Called with ``spare >= shortest``; returns as soon as that
            stops holding, which is usually within the first chunk — so
            a masked walk unboxes its positions a chunk at a time.
            """
            nonlocal shortest
            for chunk in chunks:
                for i in chunk:
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

        def chunked(order: np.ndarray) -> Iterator[list[int]]:
            for lo in range(0, len(order), 64):
                yield order[lo : lo + 64].tolist()

        while live:
            if total <= L:
                # Lines 4–5 on a later row: the survivors, in utility
                # order (as a per-row re-sort would leave them) unless a
                # select opens here.
                survivors = list(compress(reqs, alive))
                if opening[0]:
                    left = {r.request_id for r in survivors}
                    survivors = [r for r in servable if r.request_id in left]
                yield survivors, (list(survivors), [])
                return

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
                # Lines 11–12: N^D, earliest deadline first.  (Nothing
                # before N^U's end is live.)
                if masked:
                    # Only a live request no longer than the spare
                    # capacity can be taken, now or later in this row:
                    # the others are left out of the walk up front.
                    n_d = edf_order[(alive_col & (len_col <= spare))[edf_order]]
                    spare = take(chunked(n_d[n_d < cut]), chosen, spare)
                else:
                    spare = take(([i for i in edf if i < cut and alive[i]],), chosen, spare)
                num_d = len(chosen) - len(n_u)
            if spare >= shortest and cut < n:
                # Lines 13–15: back-fill from the rest, in utility order.
                if masked:
                    rest = np.flatnonzero(alive_col[cut:] & (len_col[cut:] <= spare))
                    spare = take(chunked(rest + cut), chosen, spare)
                else:
                    spare = take((compress(range(cut, n), alive[cut:]),), chosen, spare)

            row = [reqs[i] for i in chosen]
            live -= len(chosen)
            total -= L - spare
            yield row, (row[: len(n_u)], row[len(n_u) : len(n_u) + num_d])


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

    def open(self, waiting: Sequence[Request], now: float = 0.0) -> DASFill:
        return DASFill(waiting, self.batch.row_length, self.config.eta, self.config.q)

    def _select(
        self, waiting: Sequence[Request], now: float
    ) -> SchedulingDecision:
        fill = self.open(waiting, now)
        decision = fill.next_rows(self.batch.num_rows)
        parts = fill.parts
        if self.record_parts:
            self.last_parts = parts
        # Per-decision DAS observability (repro.obs): how the selection
        # split between Algorithm 1's two mechanisms.
        decision.info = {
            "scheduler": self.name,
            "eta": self.config.eta,
            "q": self.config.q,
            "num_utility_dominant": sum(len(u) for u, _ in parts),
            "num_deadline_aware": sum(len(d) for _, d in parts),
        }
        return decision
