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
- admission order is a pluggable key (FCFS or utility), mirroring the
  slot-level schedulers.

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

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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

__all__ = ["ContinuousBatchingSimulator"]

_HEALTHY = FaultEvent()


@dataclass
class _Running:
    request: Request
    remaining_steps: int


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

    def _admission_key(self) -> Callable[[Request], tuple]:
        if self.admission == "fcfs":
            return lambda r: (r.arrival, r.request_id)
        return lambda r: (-r.utility, r.request_id)

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
        tr, ov, tn = life.tr, life.ov, life.tn
        if resume is not None:
            now = resume.now
            iteration = resume.iteration or 0
            running = [
                _Running(req, steps) for req, steps in (resume.running or ())
            ]
            if resume.rng_state is not None:
                rng.bit_generator.state = resume.rng_state
        else:
            running = []
            now = 0.0
            iteration = 0
        life.begin(
            requests,
            horizon,
            lambda: {
                "now": now,
                "running": [(r.request, r.remaining_steps) for r in running],
                "iteration": iteration,
                "rng": rng,
            },
            resume,
        )
        metrics = life.metrics
        budget = self.batch.capacity_tokens
        key = self._admission_key()

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
            used = sum(r.request.length for r in running)
            # The admission orders are total (request-id tie-break), so
            # the view's column sort (one np.lexsort, no key tuples) is
            # bit-identical to an explicit keyed sort of the requests.
            view = life.waiting(now)
            attr = "by_arrival" if self.admission == "fcfs" else "by_utility"
            waiting = getattr(view, attr, None)
            if waiting is None:
                waiting = sorted(view, key=key)
            # Fair share (tenancy): partition the *free* budget across
            # active tenants by weight×deficit; a tenant that spends its
            # allowance blocks (FCFS) or skips (utility) only itself.
            share = (
                tn.iteration_share(view, max(0, iter_budget - used))
                if tn is not None
                else None
            )
            blocked: set[str] = set()
            admitted: list[Request] = []
            for req in waiting:
                if req.length > self.batch.row_length:
                    continue
                if share is not None:
                    tenant = tn.key(req)
                    if tenant in blocked:
                        continue
                    if not share.fits(req):
                        if self.admission == "fcfs":
                            blocked.add(tenant)  # per-tenant head-of-line
                        continue
                if used + req.length > iter_budget:
                    if self.admission == "fcfs":
                        break  # head-of-line blocking, true to FCFS
                    continue
                used += req.length
                if share is not None:
                    share.charge(req)
                admitted.append(req)
            if share is not None:
                share.settle()
            prefill_tokens = 0
            prefill_entries = 0
            if admitted:
                # Iteration-level dispatch: residents leave the wait queue
                # for `running` here and get their terminal from
                # life.serve / life.failed / life.finish later.
                life.dispatch(admitted, now, resident=True)
                prefill_tokens = sum(r.length for r in admitted)
                prefill_entries = sum(r.length**2 for r in admitted)
                for req in admitted:
                    steps = 1 + int(rng.geometric(1.0 / self.mean_output_tokens))
                    running.append(_Running(req, steps))

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
                residents = [r.request for r in running]
                running = []
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
                victims = [r.request for r in running[keep:]]
                running = running[:keep]
                evict(victims, "oom")
                continue

            # One fused iteration (Orca's selective batching): a decode
            # step for every running request, with newly admitted prompts
            # prefilled *inside* the same iteration at marginal cost —
            # no extra per-batch launch/floor.
            context = sum(r.request.length for r in running) + len(running)
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

            still: list[_Running] = []
            finished: list[Request] = []
            for r in running:
                r.remaining_steps -= 1
                if r.remaining_steps <= 0:
                    finished.append(r.request)
                else:
                    still.append(r)
            running = still
            if finished:
                life.serve(finished, now, dequeue=False)

        # Unfinished residents at the horizon still produced no response.
        return life.finish([r.request for r in running])
