"""TCBServer — the online serving facade (paper Fig. 3, top box).

A synchronous in-process server exercising the *real* NumPy model:
applications ``submit()`` sentences (token-id lists), the server queues
them, and each ``step()`` runs one scheduler+engine slot, returning
finished responses.  This is the component a deployment would put behind
an RPC layer; the discrete-event :class:`ServingSimulator` exists for
paper-scale sweeps where real execution is too slow.

Overload management (``docs/overload.md``): with an
:class:`~repro.serving.admission.AdmissionController` and/or an
:class:`~repro.overload.controller.OverloadController`, ``submit``
raises :class:`~repro.overload.backpressure.BackpressureError` instead
of queueing doomed work — an explicit retry-later signal — and each
``step`` runs the degradation controller and load shedder before
scheduling.  Every outcome lands in the server's
:class:`~repro.serving.metrics.ServingMetrics` ledger, whose
conservation invariant holds once the queue is drained.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.config import BatchConfig, ModelConfig, SchedulerConfig
from repro.core.layout import BatchLayout
from repro.core.packing import pack_in_order
from repro.durability.plane import DurabilityConfig, DurabilityPlane
from repro.durability.restore import RestoredState
from repro.model.seq2seq import Seq2SeqModel
from repro.overload.backpressure import BackpressureError
from repro.overload.controller import OverloadController
from repro.scheduling.base import Scheduler
from repro.scheduling.das import DASScheduler
from repro.scheduling.queue import RequestQueue
from repro.serving.admission import AdmissionController
from repro.serving.lifecycle import Lifecycle
from repro.serving.metrics import ServingMetrics
from repro.tenancy.admission import QuotaExceeded
from repro.tenancy.plane import TenancyPlane
from repro.types import Request
from repro.watermark import mark

__all__ = ["TCBServer", "Response", "DrainExhausted"]


class DrainExhausted(RuntimeError):
    """``run_until_drained`` hit its step budget with work still queued."""

    def __init__(self, pending: int, max_steps: int):
        super().__init__(
            f"queue not drained after {max_steps} steps "
            f"({pending} requests still pending)"
        )
        self.pending = pending
        self.max_steps = max_steps


@dataclass
class Response:
    request_id: int
    output_tokens: list[int]
    submitted_at: float
    finished_at: float

    @property
    def latency(self) -> float:
        return self.finished_at - self.submitted_at


class TCBServer:
    """Online ConcatBatching inference server over the NumPy model."""

    def __init__(
        self,
        model_config: Optional[ModelConfig] = None,
        batch: Optional[BatchConfig] = None,
        scheduler: Optional[Scheduler] = None,
        *,
        seed: int = 0,
        max_new_tokens: int = 8,
        default_slack: float = 60.0,
        admission: Optional[AdmissionController] = None,
        overload: Optional[OverloadController] = None,
        durability: Optional[DurabilityPlane] = None,
        checkpoint_every: int = 0,
        tenancy: Optional[TenancyPlane] = None,
    ):
        self.model_config = model_config or ModelConfig.tiny()
        self.batch = batch or BatchConfig(num_rows=4, row_length=32)
        if self.batch.row_length > self.model_config.max_len:
            raise ValueError(
                "batch row length exceeds the model's maximum input length"
            )
        self.scheduler = scheduler or DASScheduler(self.batch, SchedulerConfig())
        self.model = Seq2SeqModel(self.model_config, seed=seed)
        self.max_new_tokens = max_new_tokens
        self.default_slack = default_slack
        self.admission = admission
        self.overload = overload
        self._next_id = 0
        self._submit_times: dict[int, float] = {}
        self._responses: dict[int, Response] = {}
        # True when the last run_until_drained() hit its step budget.
        self.drain_exhausted = False
        # Durability plane (docs/recovery.md): submits are write-ahead
        # journaled before being acknowledged, so a warm restart can
        # recover every acknowledged-but-unserved request exactly once.
        # Armed lazily on the first submit/step so a server built over
        # an existing journal can warm_restart() from it instead.
        if durability is None and checkpoint_every > 0:
            durability = DurabilityPlane(
                DurabilityConfig(checkpoint_every=checkpoint_every)
            )
        self.durability = durability
        self._dur_armed = False
        # Tenancy plane (docs/tenancy.md): quota rejections surface as
        # typed QuotaExceeded (a BackpressureError subclass) from
        # submit(); per-tenant ledgers mirror the online ledger.
        self.tenancy = tenancy
        if tenancy is not None:
            tenancy.begin_run()
        # Online ledger: arrived counts every submit() (including
        # refused ones); conservation holds once the queue drains.
        self._life = Lifecycle(
            self.scheduler,
            admission=admission,
            overload=overload,
            durability=durability,
            tenancy=tenancy,
            online=True,
        )
        # TCBServer is the *online* facade: unlike the discrete-event
        # simulators, its clock really is wall-clock (TCB003 allows this
        # file's two reads; tests/test_static_invariants.py, ALLOWED).
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------ #

    @property
    def metrics(self) -> ServingMetrics:
        return self._life.metrics

    @property
    def _queue(self) -> RequestQueue:
        return self._life.queue

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _loop_state(self) -> dict:
        return {
            "now": self._now(),
            "extra": {
                "next_id": self._next_id,
                # One entry per submit, never rewritten: a watermark.
                "submit_times": mark(self._submit_times),
            },
        }

    def _arm_durability(self) -> None:
        if self.durability is not None and not self._dur_armed:
            self._dur_armed = True
            self._life.arm(self._loop_state)

    def warm_restart(self) -> RestoredState:
        """Rebuild this server's state from its durability journal.

        Restores the latest snapshot plus committed journal replay, then
        recovers write-ahead (acknowledged but uncommitted) submits with
        duplicate suppression — exactly-once: never served twice, never
        lost.  Responses already delivered before the crash are not
        reconstructed (their output tokens are not journaled); recovered
        requests are re-served by the next steps and the deterministic
        model regenerates identical outputs.
        """
        dur = self.durability
        if dur is None:
            raise ValueError("warm restart requires a durability plane")
        state = dur.restore(recover_enqueues=True)
        # The online ledger folds expiry immediately (no end-of-run
        # sweep), so the metrics bucket mirrors the queue's ledger.
        state.metrics.expired = list(state.queue.expired)
        self._life.adopt(state)
        extra = state.extra
        self._submit_times = dict(extra.get("submit_times", {}))
        self._next_id = extra.get("next_id", 0)
        for req, submit_time in state.recovered:
            # restore_state re-counted it in metrics.arrived; its tenant's
            # ledger came from the last commit, before the submit.
            if self.tenancy is not None:
                self.tenancy.arrive(req)
            if submit_time is not None:
                self._submit_times[req.request_id] = submit_time
            self._next_id = max(self._next_id, req.request_id + 1)
        self._responses = {}
        self._dur_armed = True
        self._life.arm(self._loop_state, resume=state)
        return state

    def submit(
        self,
        tokens: Sequence[int],
        *,
        deadline_slack: Optional[float] = None,
        tenant: Optional[str] = None,
    ) -> int:
        """Enqueue one request; returns its id for :meth:`poll`.

        With a tenancy plane, ``tenant=`` stamps the request's identity:
        its SLO class supplies the utility weight (and, when no explicit
        ``deadline_slack`` is given, scales the default slack), and the
        tenant's token bucket / in-flight cap may refuse the submit with
        a typed :class:`~repro.tenancy.admission.QuotaExceeded`.
        """
        if not tokens:
            raise ValueError("cannot submit an empty request")
        if len(tokens) > self.batch.row_length:
            raise ValueError(
                f"request of {len(tokens)} tokens exceeds row length "
                f"{self.batch.row_length}"
            )
        self._arm_durability()
        life, tn, ov = self._life, self.tenancy, self.overload
        rid = self._next_id
        self._next_id += 1
        now = self._now()
        slack = self.default_slack if deadline_slack is None else deadline_slack
        weight = 1.0
        if tn is not None:
            cls = tn.registry.tenant_class(tenant)
            weight = cls.weight
            if deadline_slack is None:
                slack = self.default_slack * cls.deadline_slack
        req = Request(
            request_id=rid,
            length=len(tokens),
            arrival=now,
            deadline=now + slack,
            tokens=tuple(int(t) for t in tokens),
            weight=weight,
            tenant=tenant,
        )
        life.arrive(req)
        if ov is not None and not ov.config.limits.unbounded:
            pressure = self._queue.pressure(ov.config.limits)
            limits = ov.config.limits
            if (
                limits.max_requests is not None
                and pressure.queued_requests + 1 > limits.max_requests
            ) or (
                limits.max_tokens is not None
                and pressure.queued_tokens + req.length > limits.max_tokens
            ):
                life.reject(req, now)
                raise BackpressureError("queue-full", pressure)
        # Write-ahead: an admitted submit is durable before it is
        # acknowledged to the caller by returning the id.
        refusal = life.admit(req, now, submit_time=now)
        if refusal is not None:
            cause, detail = refusal
            if cause == "admission":
                raise BackpressureError(f"admission: {detail}")
            if cause == "degraded":
                raise BackpressureError(f"degraded ({ov.level.label})")
            raise QuotaExceeded(tn.key(req), detail)
        self._submit_times[rid] = now
        return rid

    def step(self) -> list[Response]:
        """Run one engine slot; returns responses finished this step."""
        self._arm_durability()
        life = self._life
        life.tick()
        now = self._now()
        life.expire_and_shed(now)
        if life.breaker_blocks(0, now) is not None:
            return []
        waiting = life.waiting(now)
        if not waiting:
            return []
        selected = life.select(waiting, now).selected()
        if not selected:
            return []
        selected = life.dispatch(selected, now)
        started = self._now()
        packing = pack_in_order(
            selected, self.batch.num_rows, self.batch.row_length
        )
        layout = packing.layout
        gen = self.model.greedy_decode(layout, max_new_tokens=self.max_new_tokens)
        finished_at = self._now()
        life.engine_result(0, finished_at, ok=True)
        life.serve(packing.packed, finished_at)
        life.batch_done(
            finished_at - started, layout.useful_tokens, layout.padded_tokens
        )
        out: list[Response] = []
        for req in packing.packed:
            resp = Response(
                request_id=req.request_id,
                output_tokens=gen.outputs[req.request_id],
                submitted_at=self._submit_times[req.request_id],
                finished_at=finished_at,
            )
            self._responses[req.request_id] = resp
            out.append(resp)
        return out

    def poll(self, request_id: int) -> Optional[Response]:
        """Fetch a finished response (None while pending)."""
        return self._responses.get(request_id)

    def run_until_drained(
        self, max_steps: int = 1000, *, on_exhausted: str = "raise"
    ) -> list[Response]:
        """Keep stepping until the queue is empty; returns all responses.

        If the queue is still non-empty after ``max_steps`` the drain is
        *exhausted* — previously that returned a silently-partial result.
        Now it raises :class:`DrainExhausted` (default) or, with
        ``on_exhausted="return"``, returns the partial responses with the
        exhaustion recorded in :attr:`drain_exhausted`.
        """
        if on_exhausted not in ("raise", "return"):
            raise ValueError(f"unknown on_exhausted mode {on_exhausted!r}")
        self.drain_exhausted = False
        all_out: list[Response] = []
        for _ in range(max_steps):
            if not len(self._queue):
                return all_out
            out = self.step()
            all_out.extend(out)
        if len(self._queue):
            self.drain_exhausted = True
            if on_exhausted == "raise":
                raise DrainExhausted(len(self._queue), max_steps)
        return all_out

    @property
    def pending(self) -> int:
        return len(self._queue)
