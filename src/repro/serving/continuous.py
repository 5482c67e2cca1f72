"""Continuous (iteration-level) batching — an ORCA-style comparison system.

TCB schedules at *batch* granularity: a batch is packed, runs to
completion, then the next is packed.  Iteration-level scheduling (Yu et
al., OSDI'22 "Orca") instead re-examines the running batch at every
decode step: finished requests leave immediately and waiting requests
join as soon as there is room.  This module implements that discipline
on the same substrates (cost model, queue, metrics) so the two
philosophies can be compared under identical workloads — an extension
the paper's related-work section gestures at but does not evaluate.

Simplifications (documented, deliberate):

- capacity is a token budget (``B × L``) over resident requests — the
  analogue of KV-cache capacity,
- admission runs a *prefill* pass for the new requests' prompts (priced
  by the cost model), then they join the per-step decode loop,
- output lengths are sampled per request (decode-until-EOS stand-in)
  from a geometric-like distribution with a configurable mean, seeded —
  the cost model has no content to condition on,
- admission order is FCFS or utility (:func:`admit`, on columns:
  ``docs/performance.md`` §8), mirroring the slot-level schedulers.

Fault tolerance (``docs/faults.md``): an optional
:class:`~repro.faults.plan.FaultPlan` injects per-iteration faults — a
failed iteration consumes its step time without decode progress, a
straggler multiplies the step, a transient OOM evicts the newest half
of the resident batch back to the wait queue, and a crash takes the
engine down for its downtime and evicts everything resident.  Evicted
requests go through the same bounded deadline-aware requeue policy as
the batch-level loops.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from repro.config import BatchConfig
from repro.durability.plane import DurabilityPlane
from repro.durability.restore import RestoredState
from repro.engine.cost_model import GPUCostModel
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.faults.recovery import RetryPolicy
from repro.obs.recorder import Tracer
from repro.overload.controller import OverloadController
from repro.rng import ensure_rng
from repro.serving.common import resolve_workload
from repro.serving.lifecycle import Lifecycle
from repro.serving.metrics import ServingMetrics
from repro.tenancy.plane import TenancyPlane
from repro.types import Request
from repro.workload.generator import WorkloadGenerator

__all__ = ["ContinuousBatchingSimulator", "admit"]

_HEALTHY = FaultEvent()
_LENGTH = attrgetter("length")


def admit(
    waiting: Sequence[Request],
    free: int,
    row_length: int,
    *,
    fcfs: bool,
    tenancy: Optional[TenancyPlane] = None,
) -> list[Request]:
    """The requests one iteration admits into *free* tokens, in order.

    *waiting* is taken by ``(arrival, request_id)`` under FCFS, else by
    ``(-utility, request_id)``; a request longer than *row_length* never
    fits.  The head-of-line prefix that fits (``cumsum`` +
    ``searchsorted``) is FCFS's whole answer; utility admission
    skip-fits the rest until *free* is below the shortest request left.
    With fair share, a request must also fit its tenant's allowance.
    """
    n = len(waiting)
    lengths = np.fromiter(map(_LENGTH, waiting), np.int64, n)
    ids = np.fromiter(map(attrgetter("request_id"), waiting), np.int64, n)
    if fcfs:
        key = np.fromiter(map(attrgetter("arrival"), waiting), np.float64, n)
    else:  # the same IEEE division as Request.utility: bit-equal to it
        key = -(np.fromiter(map(attrgetter("weight"), waiting), np.float64, n) / lengths)
    order = np.lexsort((ids, key))
    order = order[lengths[order] <= row_length]
    ordered = lengths[order]
    share = None if tenancy is None else tenancy.iteration_share(waiting, max(0, free))
    picked, start = [], 0
    if share is None:
        cut = int(np.searchsorted(np.cumsum(ordered), free, side="right"))
        picked = order[:cut].tolist()
        if fcfs or cut == len(order):
            return [waiting[i] for i in picked]
        free -= int(ordered[:cut].sum())
        start = cut + 1  # position `cut` is the one the budget cannot hold
    rest = ordered[start:]
    positions = order[start:].tolist()
    # floor[j]: the shortest request from j on; below it nothing fits.
    floor = np.minimum.accumulate(rest[::-1])[::-1].tolist()
    blocked: set[str] = set()
    for j, length in enumerate(rest.tolist()):
        if free < floor[j]:
            break
        if share is not None:
            req = waiting[positions[j]]
            tenant = tenancy.key(req)
            if tenant in blocked:
                continue
            if not share.fits(req):
                if fcfs:
                    blocked.add(tenant)  # per-tenant head-of-line
                continue
        if length > free:
            if fcfs:
                break  # head-of-line blocking, true to FCFS
            continue
        free -= length
        if share is not None:
            share.charge(req)
        picked.append(positions[j])
    if share is not None:
        share.settle()
    return [waiting[i] for i in picked]


class ContinuousBatchingSimulator:
    """Iteration-level serving over the analytic cost model."""

    def __init__(
        self,
        batch: BatchConfig,
        *,
        cost_model: Optional[GPUCostModel] = None,
        mean_output_tokens: float = 8.0,
        admission: str = "fcfs",
        seed: int = 0,
        rng: Optional[np.random.Generator] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        trace: Optional[Tracer] = None,
        overload: Optional[OverloadController] = None,
        durability: Optional[DurabilityPlane] = None,
        tenancy: Optional[TenancyPlane] = None,
    ):
        if mean_output_tokens < 1:
            raise ValueError("mean_output_tokens must be >= 1")
        if admission not in ("fcfs", "utility"):
            raise ValueError(f"unknown admission policy {admission!r}")
        self.batch = batch
        self.cost_model = cost_model or GPUCostModel.calibrated()
        self.mean_output_tokens = mean_output_tokens
        self.admission = admission
        self.seed = seed
        # Injected generator (replayable end-to-end by the caller); when
        # None, each run() derives a fresh stream from the seed so
        # repeated runs stay deterministic and bit-identical.
        self.rng = rng
        self.fault_plan = fault_plan
        self.retry = retry or RetryPolicy()
        self.trace = trace
        # Overload plane (off by default): bounded wait queue + shedding,
        # brownout token-budget shrink, breaker over iteration faults.
        self.overload = overload
        # Durability plane (off by default; see docs/recovery.md).  The
        # resident set and the output-length RNG cursor are part of the
        # snapshot, so a restore re-draws the same decode lengths.
        self.durability = durability
        # Tenancy plane (off by default; docs/tenancy.md): here the
        # fair share partitions the per-iteration token budget rather
        # than batch rows.
        self.tenancy = tenancy

    def _event(self, iteration: int) -> FaultEvent:
        if self.fault_plan is None or self.fault_plan.config.is_zero:
            return _HEALTHY
        return self.fault_plan.event(iteration)

    # ------------------------------------------------------------------ #

    def run(
        self,
        workload: WorkloadGenerator | Sequence[Request],
        *,
        horizon: Optional[float] = None,
        resume: Optional[RestoredState] = None,
    ) -> ServingMetrics:
        requests, horizon = resolve_workload(workload, horizon)

        rng = ensure_rng(self.rng, default_seed=self.seed)
        cost = self.cost_model
        life = Lifecycle(
            retry=self.retry,
            trace=self.trace,
            overload=self.overload,
            durability=self.durability,
            tenancy=self.tenancy,
        )
        tr, ov = life.tr, life.ov
        now, iteration, pairs = 0.0, 0, ()
        if resume is not None:
            now, iteration = resume.now, resume.iteration or 0
            pairs = resume.running or ()
            if resume.rng_state is not None:
                rng.bit_generator.state = resume.rng_state
        # Residents in admission order, beside their remaining decode
        # steps; resident_tokens is the sum of their prompt lengths.
        running = [req for req, _ in pairs]
        steps = np.array([s for _, s in pairs], dtype=np.int64)
        resident_tokens = sum(map(_LENGTH, running))
        life.begin(
            requests,
            horizon,
            lambda: {
                "now": now,
                "running": list(zip(running, steps.tolist())),
                "iteration": iteration,
                "rng": rng,
            },
            resume,
        )
        metrics = life.metrics
        budget = self.batch.capacity_tokens
        fcfs = self.admission == "fcfs"

        def evict(victims: list[Request], kind: str) -> None:
            """Residents lost to a fault re-enter through the bounded
            deadline-aware requeue (they must re-prefill)."""
            life.failed(victims, cost, now, readd=True)
            life.engine_result(0, now, ok=False, kind=kind)

        while now < horizon:
            life.tick()
            retry_at = life.breaker_blocks(0, now)
            if retry_at is not None:
                # Breaker open: no iterations (decode or prefill) until
                # the recovery interval elapses; jump the clock there.
                now = min(retry_at, horizon)
                continue
            life.admit_arrivals(now)
            life.expire_and_shed(now)

            # Admit while there is token budget (shrunk under brownout).
            iter_budget = budget if ov is None else ov.scale_budget(budget)
            admitted = admit(
                life.waiting(now),
                iter_budget - resident_tokens,
                self.batch.row_length,
                fcfs=fcfs,
                tenancy=life.tn,
            )
            prefill_tokens = 0
            prefill_entries = 0
            if admitted:
                # Iteration-level dispatch: residents leave the wait queue
                # for `running` here and get their terminal from
                # life.serve / life.failed / life.finish later.
                life.dispatch(admitted, now, resident=True)
                lengths = np.fromiter(map(_LENGTH, admitted), np.int64, len(admitted))
                prefill_tokens = int(lengths.sum())
                prefill_entries = int(lengths @ lengths)
                resident_tokens += prefill_tokens
                running += admitted
                # Consumes the stream exactly as one scalar draw each.
                draws = rng.geometric(1.0 / self.mean_output_tokens, len(admitted))
                steps = np.concatenate((steps, 1 + draws))

            if not running:
                wake = life.next_arrival_at()
                if wake is None:
                    break
                now = max(now, wake)
                continue

            event = self._event(iteration)
            iteration += 1
            if event.kind is FaultKind.CRASH:
                # The engine loses its resident batch and sits out the
                # downtime.
                metrics.failed_batches += 1
                life.crashed(event.downtime, now, num_requests=len(running))
                now += event.downtime
                residents = running
                running, steps, resident_tokens = [], steps[:0], 0
                evict(residents, "crash")
                continue
            if event.kind is FaultKind.OOM:
                # Transient alloc failure: evict the newest half of the
                # resident batch (split-batch retry, iteration flavour);
                # only the launch overhead is wasted.
                metrics.failed_batches += 1
                wasted = cost.fixed_per_batch
                if tr.enabled:
                    tr.batch(
                        now, wasted, kind="failed", fault="oom",
                        num_requests=len(running),
                    )
                now += wasted
                metrics.total_engine_time += wasted
                keep = len(running) // 2
                victims = running[keep:]
                running, steps = running[:keep], steps[:keep]
                resident_tokens -= sum(map(_LENGTH, victims))
                evict(victims, "oom")
                continue

            # One fused iteration (Orca's selective batching): a decode
            # step for every running request, with newly admitted prompts
            # prefilled *inside* the same iteration at marginal cost —
            # no extra per-batch launch/floor.
            context = resident_tokens + len(running)
            step = (
                cost.decode_step_time(len(running), context)
                + cost.per_token * prefill_tokens
                + prefill_entries / cost.attn_rate
            )
            if event.kind is FaultKind.STRAGGLER:
                step *= event.multiplier
            failed = event.kind is FaultKind.FAILURE
            if tr.enabled:
                tr.batch(
                    now,
                    step,
                    kind="failed" if failed else "iteration",
                    num_requests=len(running),
                    context_tokens=context,
                    prefill_tokens=prefill_tokens,
                    straggler=event.kind is FaultKind.STRAGGLER,
                )
            now += step
            metrics.total_engine_time += step
            life.engine_result(0, now, ok=not failed)
            if failed:
                # The iteration ran but its outputs were lost: no decode
                # progress, the step time is wasted, residents stay put.
                metrics.failed_batches += 1
                continue
            metrics.num_batches += 1  # one iteration

            steps -= 1
            done = steps <= 0
            if done.any():
                # Order-preserving compaction: served order feeds the
                # ledger, and OOM evicts the newest residents.
                stay = ~done
                finished = list(compress(running, done.tolist()))
                running = list(compress(running, stay.tolist()))
                steps = steps[stay]
                resident_tokens -= sum(map(_LENGTH, finished))
                life.serve(finished, now, dequeue=False)

        # Unfinished residents at the horizon still produced no response.
        return life.finish(running)
