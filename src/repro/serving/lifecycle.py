"""One request lifecycle for every serving loop and the online server.

A request moves ``arrive → enqueue | reject``, then ``expire | shed |
dispatch``, then ``serve | requeue | abandon``.  :class:`Lifecycle` owns
the run's :class:`~repro.scheduling.queue.RequestQueue` and
:class:`~repro.serving.metrics.ServingMetrics`, holds whichever planes
the caller was given (admission controller, tracer, overload,
durability, tenancy, cluster health), and is the only code that
performs one of those transitions: each method below moves the
requests, books the ledger and tells every attached plane once, in one
order (``docs/lifecycle.md`` has the transition × plane table).  No
other module calls a queue mutator — besides
``repro/durability/restore.py``, which folds an online server's
journaled submits and responses into a restored queue — so a request
cannot leave the queue without its ledger entry
(``tests/test_lifecycle_properties.py`` walks the package to check).
It also runs the batch-level engine slot itself: :meth:`run_slot` is
the one body of the paper's Fig. 3 step (select, slot size, dispatch,
:meth:`attempt` — the one call of
:func:`~repro.faults.recovery.serve_slot` — then triage or serve) for
the cluster loop and the online server.  The callers keep only what
differs between them — the clock, which engine polls when, hedging's
race, autoscaling, and turning what a slot served into responses.

Every plane is optional and absent by default; a method then touches
only the queue and the metrics, which is the paper's Fig. 3 loop.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.durability.plane import DurabilityPlane
from repro.durability.restore import RestoredState
from repro.durability.snapshot import LiveState
from repro.engine.base import BatchResult, InferenceEngine
from repro.engine.cost_model import GPUCostModel
from repro.faults.recovery import RetryPolicy, SlotOutcome, serve_slot
from repro.obs.recorder import NO_TRACE, Tracer
from repro.overload.controller import OverloadController
from repro.scheduling.base import Scheduler, SchedulingDecision
from repro.scheduling.queue import RequestQueue
from repro.serving.admission import AdmissionController
from repro.serving.common import MIN_SLOT, apply_slot_size
from repro.serving.metrics import ServingMetrics, Terminals
from repro.tenancy.plane import TenancyPlane
from repro.types import Request

__all__ = ["Lifecycle", "SlotRun"]


class SlotRun(NamedTuple):
    """What one engine's poll of :meth:`Lifecycle.run_slot` came to."""

    # When the engine may poll next: None means nothing to do until new
    # work arrives, ``math.inf`` not again this run (a breaker open past
    # the horizon).  A served slot's is its finish.
    next_at: Optional[float]
    # The rejoin time, when the engine crashed.
    down_until: Optional[float] = None
    # The batch served (after a hedge win, the duplicate's result).
    result: Optional[BatchResult] = None


class Lifecycle:
    """Queue + ledger + plane fan-out of one serving run.

    ``online=True`` is the :class:`~repro.serving.server.TCBServer`
    form: there is no request list and no :meth:`finish`, so arrivals
    are counted as they come and what the simulators fold into the
    ledger at end of run — deadline expiries and admission-controller
    refusals — is ledgered at once.
    """

    def __init__(
        self,
        scheduler: Optional[Scheduler] = None,
        *,
        retry: Optional[RetryPolicy] = None,
        admission: Optional[AdmissionController] = None,
        trace: Optional[Tracer] = None,
        overload: Optional[OverloadController] = None,
        durability: Optional[DurabilityPlane] = None,
        tenancy: Optional[TenancyPlane] = None,
        health: Any = None,
        engines: Sequence[InferenceEngine] = (),
        online: bool = False,
    ):
        self.scheduler = scheduler
        self.retry = retry or RetryPolicy()
        self.admission = admission
        self.tr = trace if trace is not None else NO_TRACE
        # What plane hooks taking ``tracer=`` receive: None when untraced.
        self.trace_arg = self.tr if self.tr.enabled else None
        self.ov = overload
        self.dur = durability
        self.tn = tenancy
        self.health = health
        self.engines = engines
        self.online = online
        self.queue = RequestQueue()
        self.metrics = ServingMetrics()
        # Set once finish() has folded every terminal into the metrics.
        self.finished = False
        if tenancy is not None:
            tenancy.bind(self.terminals)
        self.requests: Sequence[Request] = ()
        self.next_arrival = 0
        # A controller may be shared across runs; only this run's
        # rejections belong in this run's metrics.
        self.rejected_before = 0
        self._loop_state: Callable[[], dict] = dict

    # ------------------------------------------------------------------ #
    # Run lifecycle
    # ------------------------------------------------------------------ #

    def begin(
        self,
        requests: Sequence[Request],
        horizon: float,
        loop_state: Callable[[], dict] = dict,
        resume: Optional[RestoredState] = None,
    ) -> None:
        """Start (or, with ``resume=``, restart) a run over *requests*.

        ``loop_state`` returns the caller's own checkpoint fields
        (``now``, and any of ``idle``/``running``/``iteration``/``rng``/
        ``extra``); everything else in the durability snapshot is owned
        here.
        """
        self.requests = requests
        if resume is not None:
            if self.dur is None:
                raise ValueError("resume= requires a durability plane")
            self.adopt(resume)
        else:
            self.metrics.arrived = len(requests)
            for plane in (self.ov, self.health, self.tn):
                if plane is not None:
                    plane.begin_run()
            self.rejected_before = (
                len(self.admission.rejected) if self.admission is not None else 0
            )
        self.metrics.horizon = horizon
        self.arm(loop_state, resume)

    def adopt(self, state: RestoredState) -> None:
        """Take over a restored queue + ledger; push plane state back.

        An online server's submits after the snapshot arrive at the
        tenancy plane here and are charged as their admission charged
        them (admission controller, tenant in-flight cap and bucket);
        requests its delivered responses took off the queue give back
        their charges.
        """
        self.queue, self.metrics = state.queue, state.metrics
        self.next_arrival = state.next_arrival
        self.rejected_before = state.rejected_before
        state.apply_shared(engines=self.engines, **self._owners())
        if self.admission is not None:
            self.admission.charge(state.recovered)
        if self.tn is not None:
            self.tn.arrive(state.recovered)
            self.tn.charge(state.recovered)
        self._release(state.released)

    def arm(
        self,
        loop_state: Callable[[], dict],
        resume: Optional[RestoredState] = None,
    ) -> None:
        """Hand the durability plane its capture hook (genesis snapshot)."""
        self._loop_state = loop_state
        if self.dur is not None:
            self.dur.begin_run(self._live, self.tr, resume=resume)

    def _owners(self) -> dict[str, Any]:
        """The shared objects a checkpoint exports and a restore refills."""
        return {
            "tracer": self.trace_arg,
            "overload": self.ov,
            "admission": self.admission,
            "health": self.health,
            "tenancy": self.tn,
        }

    def _live(self) -> LiveState:
        return LiveState(
            queue=self.queue,
            metrics=self.metrics,
            next_arrival=self.next_arrival,
            rejected_before=self.rejected_before,
            engines=self.engines,
            **self._owners(),
            **self._loop_state(),
        )

    def tick(self) -> None:
        """Step boundary: first statement of every loop iteration."""
        if self.dur is not None:
            self.dur.tick()

    def next_arrival_at(self) -> Optional[float]:
        """Arrival time of the next not-yet-admitted request, if any."""
        if self.next_arrival < len(self.requests):
            return self.requests[self.next_arrival].arrival
        return None

    def _release(self, requests: Sequence[Request]) -> None:
        """Tell the admission controller and tenancy requests left the queue."""
        if self.admission is not None:
            self.admission.release(requests)
        if self.tn is not None:
            self.tn.release(requests)

    def terminals(self) -> Terminals:
        """The run's terminal ledger as it stands now.

        Online, and once :meth:`finish` has folded them, every terminal
        is in the metrics; before that, expiries and abandons sit on the
        queue's ledger and admission refusals on the controller's.
        """
        m, q = self.metrics, self.queue
        if self.online or self.finished:
            return Terminals(m.served, m.expired, m.rejected, m.abandoned, m.finish_times)
        rejected = m.rejected
        if self.admission is not None:
            rejected = rejected + self.admission.rejected[self.rejected_before:]
        return Terminals(m.served, q.expired, rejected, q.abandoned, m.finish_times)

    # ------------------------------------------------------------------ #
    # Arrival: admission controller → degradation floor → tenant quota
    # ------------------------------------------------------------------ #

    def arrive(self, arrivals: Sequence[Request]) -> None:
        """Arrivals (counted here only online; a run presets the total)."""
        if self.online:
            self.metrics.arrived += len(arrivals)
        if self.tn is not None:
            self.tn.arrive(arrivals)

    def admit_arrivals(self, now: float) -> None:
        """Arrive and admit every listed request with ``arrival <= now``.

        The slot's arrivals are one range (:meth:`_enqueue`), cut short
        of an id the queue holds or has served, or that the range
        repeats: such a request goes through alone, and raises (or is
        refused) leaving every gate as one-at-a-time admission leaves
        it.  With an admission controller
        the arrivals are admitted one at a time: a later gate's refusal
        gives the controller's charge back before the next request is
        decided.
        """
        requests, i = self.requests, self.next_arrival
        j, n = i, len(requests)
        while j < n and requests[j].arrival <= now:
            j += 1
        while i < j:
            if self.admission is None:
                arrivals = requests[i:j]
                k = self.queue.first_clash(arrivals)
                if k:
                    arrivals = arrivals[:k]
                    self.arrive(arrivals)
                    self._enqueue(arrivals, start=i)
                    i += k
                    continue
            r = requests[i]
            self.arrive((r,))
            self.admit(r, r.arrival)
            i += 1
            self.next_arrival = i

    def admit(self, r: Request, now: float) -> Optional[tuple[str, Any]]:
        """Enqueue one arrived request, or reject it.

        Returns ``None`` when enqueued, else ``(cause, detail)`` with
        cause ``"queue-full"`` (online only; detail: the
        :class:`~repro.overload.backpressure.QueuePressure` reading),
        ``"admission"`` (detail: the controller's reason),
        ``"degraded"`` or ``"quota"`` (detail: the quota that refused).
        """
        adm, ov, tr = self.admission, self.ov, self.tr
        if self.online and ov is not None and not ov.config.limits.unbounded:
            limits = ov.config.limits
            pressure = self.queue.pressure(limits)
            if (
                limits.max_requests is not None
                and pressure.queued_requests + 1 > limits.max_requests
            ) or (
                limits.max_tokens is not None
                and pressure.queued_tokens + r.length > limits.max_tokens
            ):
                self.reject(r, now)
                return ("queue-full", pressure)
        verdict = adm.decide(r, now) if adm is not None else None
        if verdict is not None and not verdict.admitted:
            if self.online:
                self.reject(r, now)
            elif tr.enabled:
                # The controller keeps its refusals; finish() folds them
                # into the ledger, so only the tracer is told here.
                tr.arrive(r, now)
                tr.rejected(r, now)
            return ("admission", verdict.reason)
        return self._enqueue((r,)).get(0)

    def _enqueue(
        self, arrivals: Sequence[Request], *, start: Optional[int] = None
    ) -> dict[int, tuple[str, Any]]:
        """Queue a range of arrivals past the degradation floor and quota.

        Each gate sees the range once and judges each request at its own
        arrival time: the floor only while the overload level raises
        it, the quota only for constrained tenants.  The queue takes the
        survivors in one :meth:`~repro.scheduling.queue.RequestQueue.extend`,
        then the tracer and the ledger hear of every request in arrival
        order.  Returns the refusals, ``(cause, detail)`` by position.
        ``start``: where the range begins in the run's request list;
        ``next_arrival`` moves past it.  A range longer than one holds
        only ids new to the queue (:meth:`admit_arrivals` cuts it there);
        a lone request whose id the queue holds raises from the queue
        once it has passed the gates, as it did before ranges.
        """
        ov, tn, tr = self.ov, self.tn, self.tr
        refusals: dict[int, tuple[str, Any]] = {}
        if ov is not None:
            refusals = dict.fromkeys(ov.deny(arrivals), ("degraded", ""))
        if tn is not None and not tn.passive_admission:
            for k, quota in tn.refusals(arrivals, refusals):
                refusals[k] = ("quota", quota)
        self.queue.extend(
            [r for k, r in enumerate(arrivals) if k not in refusals] if refusals else arrivals
        )
        if start is not None:
            self.next_arrival = start + len(arrivals)
        if not tr.enabled:
            for k in sorted(refusals):
                self.reject(arrivals[k], arrivals[k].arrival, held=True)
            return refusals
        for k, r in enumerate(arrivals):
            refusal = refusals.get(k)
            if refusal is None:
                tr.arrive(r, r.arrival)
                tr.enqueue(r, r.arrival)
                continue
            if refusal[0] == "quota":
                tr.tenant(
                    r.arrival,
                    "quota",
                    tenant=tn.key(r),
                    request_id=r.request_id,
                    tokens=r.length,
                )
            self.reject(r, r.arrival, held=True)
        return refusals

    def reject(self, r: Request, now: float, *, held: bool = False) -> None:
        """Terminal ``rejected`` for a request that never queued.

        ``held``: the admission controller had admitted it, so the
        tokens it reserved are given back.
        """
        if held:
            self._release((r,))
        self.metrics.rejected.append(r)
        if self.tr.enabled:
            self.tr.arrive(r, now)
            self.tr.rejected(r, now)

    # ------------------------------------------------------------------ #
    # Waiting: expire, shed, select, drop
    # ------------------------------------------------------------------ #

    def waiting(self, now: float) -> list[Request]:
        """``N_t``: the requests a scheduler may pick from at *now*."""
        return self.queue.waiting(now)

    def expire_and_shed(self, now: float) -> list[Request]:
        """Expire past-deadline requests, then shed back under the limits.

        Returns the requests shed.  A shed is a ``rejected``-class
        terminal: the victims the overload controller chose leave the
        queue and are booked here, once, on every ledger.
        """
        queue, tr, tn, ov = self.queue, self.tr, self.tn, self.ov
        dead = queue.expire(now)
        if self.online:
            self.metrics.expired.extend(dead)
        if tr.enabled:
            tr.expired(dead, now)
        self._release(dead)
        if ov is None:
            return []
        ov.observe_outcomes(missed=len(dead))
        ov.update(now, queue, tr)
        shed = queue.take(ov.shed_victims(queue, now))
        if not shed:
            return shed
        m = self.metrics
        m.rejected.extend(shed)
        m.shed += len(shed)
        if tr.enabled:
            for r in shed:
                tr.rejected(r, now)
            tr.overload(
                now,
                "shed",
                count=len(shed),
                tokens=sum(r.length for r in shed),
                policy=ov.shed_policy,
                reason="queue-pressure",
            )
        ov.note_shed(len(shed))
        self._release(shed)
        if tn is not None:
            tn.shed(shed)
        return shed

    def breaker_blocks(self, engine: int, now: float) -> Optional[float]:
        """When *engine*'s open breaker may be retried; None if it may run."""
        ov = self.ov
        if ov is None or ov.breaker_allow(engine, now, self.tr):
            return None
        return ov.breaker_retry_at(engine)

    def select(
        self, waiting: Sequence[Request], now: float, **span: Any
    ) -> SchedulingDecision:
        """One scheduling decision over *waiting* (tenant fair share if on)."""
        scheduler, tr = self.scheduler, self.tr
        if self.tn is not None:
            decision = self.tn.select(
                scheduler, waiting, now, tracer=self.trace_arg
            )
        else:
            decision = scheduler.select(waiting, now)
        decision.validate(scheduler.batch)
        self.metrics.total_scheduler_time += decision.runtime
        if tr.enabled:
            tr.decision(
                now,
                decision.runtime,
                {
                    "scheduler": scheduler.name,
                    "num_selected": decision.num_selected,
                    "queue_depth": len(waiting),
                    **span,
                    **decision.info,
                },
            )
        return decision

    def drop_unservable(self, waiting: Sequence[Request], now: float) -> bool:
        """Drop waiting requests longer than a row; False if there are none.

        The scheduler picked nothing; requests that exceed ``L`` would
        otherwise livelock the loop until their deadlines.  They count
        as ``expired`` — the ledger of deadline expiry — because no
        amount of waiting could have served them (Eq. 11's row capacity).
        """
        row_length = self.scheduler.batch.row_length
        unservable = [r for r in waiting if r.length > row_length]
        if not unservable:
            return False
        self.queue.drop(unservable)
        if self.online:
            self.metrics.expired.extend(unservable)
        if self.tr.enabled:
            self.tr.expired(unservable, now)
        self._release(unservable)
        return True

    # ------------------------------------------------------------------ #
    # Dispatch and its outcomes
    # ------------------------------------------------------------------ #

    def dispatch(
        self,
        selected: list[Request],
        now: float,
        *,
        resident: bool = False,
    ) -> list[Request]:
        """A batch is about to run; returns it as it will run.

        A batch-level dispatch is capped under brownout and its requests
        stay queued until served.  ``resident`` marks an iteration-level
        admission: the requests leave the wait queue here, after the
        dispatch crash point, and get their terminal from :meth:`serve`
        (``dequeue=False``), :meth:`failed` (``readd=True``) or
        :meth:`finish`; the caller scales its token budget instead of
        capping.
        """
        if self.ov is not None and not resident:
            selected = self.ov.cap_batch(selected)
        if self.tr.enabled:
            self.tr.scheduled(selected, now)
        if self.dur is not None:
            self.dur.dispatch(selected)
        if resident:
            self.queue.remove_served(selected)
        return selected

    def engine_result(
        self, engine: int, at: float, *, ok: bool, kind: str = "failure"
    ) -> None:
        """Feed one engine outcome to the overload plane's breaker."""
        if self.ov is not None:
            self.ov.record_result(engine, at, ok=ok, kind=kind, tracer=self.tr)

    def attempt(
        self,
        runner: InferenceEngine,
        batch: Sequence[Request],
        at: float,
        *,
        engine: int = 0,
    ) -> SlotOutcome:
        """Run *batch* on *runner* from *at*; book what the attempt cost.

        The one call of :func:`~repro.faults.recovery.serve_slot`.  Books
        the failed attempts (wasted engine time, OOM splits), feeds the
        breaker and the health scoreboard, and books a crash's outage.
        The requests' own outcome is the caller's: a hedge duplicate's
        failure, unlike a primary's, triages nothing.
        """
        outcome = serve_slot(runner, batch, at)
        result, m, tr = outcome.result, self.metrics, self.tr
        dispatch = at + outcome.wasted
        m.failed_batches += outcome.failures
        m.retries += outcome.split_retries
        m.total_engine_time += outcome.wasted
        self.engine_result(
            engine,
            dispatch,
            ok=result is not None,
            kind="crash" if outcome.down_until is not None else "failure",
        )
        if tr.enabled and outcome.failures:
            tr.batch(
                at,
                outcome.wasted,
                engine=engine,
                kind="failed",
                failures=outcome.failures,
                split_retries=outcome.split_retries,
                num_requests=len(batch),
            )
        hp = self.health
        if hp is not None:
            hp.observe(
                engine,
                dispatch,
                ok=result is not None,
                observed=None if result is None else max(result.latency, MIN_SLOT),
                predicted=hp.predict(runner, result),
                tracer=tr,
            )
        if outcome.down_until is not None:
            self.crashed(outcome.downtime, dispatch, engine=engine)
        return outcome

    def crashed(
        self, downtime: float, at: float, *, engine: int = 0, **span: Any
    ) -> None:
        """An engine went down at *at* for *downtime*."""
        self.metrics.downtime += downtime
        if self.tr.enabled:
            self.tr.batch(
                at, downtime, engine=engine, kind="crash", downtime=downtime, **span
            )

    def failed(
        self,
        requests: Sequence[Request],
        cost_model: GPUCostModel,
        now: float,
        *,
        retry_from: Optional[float] = None,
        readd: bool = False,
    ) -> tuple[list[Request], list[Request]]:
        """Triage a failed batch: bounded requeue, or abandon.

        Each request's attempt count is bumped, the still-feasible ones
        stay (or, with ``readd``, go back) in the wait queue and the
        rest get the ``abandoned`` terminal; returns ``(retained,
        abandoned)``.  Feasibility is judged at ``retry_from`` (default
        *now*; a lone crashed engine cannot retry before it rejoins).
        ``readd``: the requests were iteration-level residents.
        """
        queue, tr = self.queue, self.tr
        if not readd:
            # A batch-level dispatch leaves its requests queued; one that
            # expired or was shed while the attempt ran has its terminal.
            requests = [r for r in requests if r.request_id in queue]
        queue.note_attempt(requests)
        retained, lost = self.retry.triage(
            requests,
            now if retry_from is None else retry_from,
            cost_model,
            queue.attempts,
        )
        if lost:
            queue.abandon(lost)
            if self.online:
                self.metrics.abandoned.extend(lost)
        if readd:
            queue.requeue(retained)
        self.metrics.retries += len(retained)
        if tr.enabled:
            tr.requeued(retained, now)
            tr.abandoned(lost, now)
        self._release(lost)
        if self.ov is not None:
            self.ov.observe_outcomes(missed=len(lost))
        return retained, lost

    def serve(
        self, served: Sequence[Request], finish: float, *, dequeue: bool = True
    ) -> None:
        """Terminal ``served`` at *finish* (``dequeue=False``: residents)."""
        m = self.metrics
        if self.tr.enabled:
            self.tr.served(served, finish)
        if dequeue:
            self.queue.remove_served(served)
        self._release(served)
        if self.ov is not None:
            on_time = sum(1 for r in served if finish <= r.deadline)
            self.ov.observe_outcomes(
                served=on_time, missed=len(served) - on_time
            )
        for r in served:
            m.finish_times[r.request_id] = (r.arrival, finish)
        m.served.extend(served)

    def batch_done(
        self, latency: float, useful_tokens: int, padded_tokens: int
    ) -> None:
        """Book one completed batch's engine time and token counts."""
        m = self.metrics
        m.total_engine_time += latency
        m.num_batches += 1
        m.useful_tokens += useful_tokens
        m.padded_tokens += padded_tokens

    def serve_batch(
        self,
        result: BatchResult,
        selected: Sequence[Request],
        at: float,
        latency: float,
        runner: InferenceEngine,
        *,
        engine: int = 0,
        **span: Any,
    ) -> float:
        """A dispatched batch ran on *runner* from *at*; returns its finish.

        Requests of *selected* that *result* did not serve (an OOM split
        dropped them) stay queued for a later slot.
        """
        tr, stats = self.tr, result.stats
        finish = at + latency
        if tr.enabled:
            tr.packed_layouts(result.layouts, at)
            tr.executed(result.served, at, latency, engine=engine)
            tr.batch(
                at,
                latency,
                engine=engine,
                kind="batch",
                num_requests=result.num_served,
                useful_tokens=stats.useful_tokens,
                padded_tokens=stats.padded_tokens,
                padding_efficiency=stats.utilisation,
                rows=stats.rows,
                row_width=stats.row_width,
                **span,
                **runner.trace_annotations(result),
            )
            served_ids = {r.request_id for r in result.served}
            tr.requeued(
                [r for r in selected if r.request_id not in served_ids], at
            )
        self.serve(result.served, finish)
        self.batch_done(latency, stats.useful_tokens, stats.padded_tokens)
        return finish

    # ------------------------------------------------------------------ #
    # One engine slot
    # ------------------------------------------------------------------ #

    def run_slot(
        self,
        runner: InferenceEngine,
        now: float,
        *,
        engine: int = 0,
        lone: bool = True,
        hedge: Optional[Callable[..., Any]] = None,
    ) -> SlotRun:
        """Engine *engine* (*runner*) is free at *now*: run one slot on it.

        Select, slot size, dispatch, :meth:`attempt`, then triage or
        :meth:`serve_batch` at ``now + wasted + max(latency, MIN_SLOT)``
        (``docs/lifecycle.md``, "One engine slot").  ``hedge(selected,
        outcome, deadline, finish)`` is the caller's race against a slot
        that runs past the health plane's hedge deadline.
        """
        waiting = self.waiting(now)
        if not waiting:
            return SlotRun(None)
        retry_at = self.breaker_blocks(engine, now)
        if retry_at is not None:
            # Quarantined until the breaker's recovery interval elapses;
            # other engines keep draining the queue meanwhile.
            past = not self.online and retry_at >= self.metrics.horizon
            return SlotRun(math.inf if past else retry_at)
        if lone:
            decision = self.select(waiting, now)
        else:
            decision = self.select(waiting, now, engine=engine)
        apply_slot_size(runner, decision)
        selected = decision.selected()
        if not selected:
            # Servable requests may be waiting, but this engine has
            # nothing to do now.
            return SlotRun(now if self.drop_unservable(waiting, now) else None)
        selected = self.dispatch(selected, now)
        # Priced before the attempt, from the pre-dispatch scoreboard and
        # latency window only: the decision at `now + deadline` must be
        # causal, never a function of the batch's own outcome.
        deadline = (
            self.health.hedge_deadline(engine)
            if hedge is not None and self.health is not None
            else None
        )
        outcome = self.attempt(runner, selected, now, engine=engine)
        dispatch = now + outcome.wasted
        result = outcome.result
        down = outcome.down_until
        if result is None:
            # Nothing can retry a lone engine's requests before the
            # attempt ends (or it rejoins); survivors can at once.
            if lone:
                self.failed(outcome.failed, runner.cost_model, dispatch, retry_from=down)
            else:
                self.failed(outcome.failed, runner.cost_model, now)
            return SlotRun(dispatch if down is None else down, down)
        latency = max(result.latency, MIN_SLOT)
        at, by = dispatch, engine
        if deadline is not None and outcome.wasted + latency > deadline:
            res = hedge(selected, outcome, deadline, dispatch + latency)
            if res is not None and res.kind == "win":
                # First completion wins; the straggling primary was
                # cancelled inside the race.
                result, latency = res.result, res.winner_latency
                at, by = res.winner_dispatch, res.winner_engine
                runner = self.engines[by]
        # Exactly-once by construction: one serve path, one winner.
        finish = self.serve_batch(
            result,
            selected,
            at,
            latency,
            runner,
            engine=by,
            slot_size=decision.slot_size,
            failures=outcome.failures,
            split_retries=outcome.split_retries,
            wasted=outcome.wasted,
        )
        # After a hedge win the primary re-arms at the winner's finish,
        # its cancellation point, unless its own failed attempts ran on.
        return SlotRun(max(finish, dispatch), result=result)

    # ------------------------------------------------------------------ #
    # End of run
    # ------------------------------------------------------------------ #

    def finish(self, residents: Sequence[Request] = ()) -> ServingMetrics:
        """End-of-run sweep: whatever is unserved counts as failed.

        *residents* are iteration-level requests still decoding at the
        horizon; then everything still queued, then every request that
        never arrived.  Folds the queue's and the admission controller's
        ledgers into the metrics and checks every plane's books.
        """
        m, tr, tn = self.metrics, self.tr, self.tn
        horizon = m.horizon
        leftover = self.requests[self.next_arrival:]
        m.expired.extend(residents)
        dead = self.queue.expire(float("inf"))
        if tr.enabled:
            tr.expired(residents, horizon)
            tr.expired(dead, horizon)
            for r in leftover:
                tr.arrive(r, r.arrival)
            tr.expired(leftover, horizon)
        if tn is not None:
            tn.release(residents)
            tn.release(dead)
            tn.arrive(leftover)
        if self.dur is not None:
            self.dur.end_run()
        m.expired.extend(self.queue.expired)
        m.expired.extend(leftover)
        m.abandoned.extend(self.queue.abandoned)
        if self.admission is not None:
            m.rejected.extend(self.admission.rejected[self.rejected_before:])
        self.finished = True
        m.assert_conservation()
        if tn is not None:
            tn.finalize(m)
        if tr.enabled:
            tr.reconcile(m)
        return m
