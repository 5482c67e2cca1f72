"""TCBServer — the online serving facade (paper Fig. 3, top box).

A synchronous in-process server exercising the *real* NumPy model:
applications ``submit()`` sentences (token-id lists), the server queues
them, and each ``step()`` runs one scheduler+engine slot, returning
finished responses.  The engine is a measured
:class:`~repro.engine.concat.ConcatEngine` packing in scheduler order,
and the slot is :meth:`~repro.serving.lifecycle.Lifecycle.run_slot`,
the batch loop's own, so a :class:`~repro.faults.engine.FaultyEngine`
assigned to :attr:`TCBServer.engine` gets the same split-batch retry,
requeue triage and crash booking online, and a slotted scheduler's
slot size reaches a slotted engine.  A slot is booked as the
simulators book it, at its start plus failed attempts plus the engine's
own timing of the model call.  This is the component a
deployment would put behind an RPC layer; the discrete-event
:class:`ServingSimulator` exists for paper-scale sweeps where real
execution is too slow.

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
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.config import BatchConfig, ModelConfig, SchedulerConfig
from repro.durability.plane import DurabilityPlane
from repro.durability.restore import RestoredState
from repro.engine.base import EngineMode, InferenceEngine
from repro.engine.concat import ConcatEngine
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
        tenancy: Optional[TenancyPlane] = None,
    ):
        self.model_config = model_config or ModelConfig.tiny()
        self.batch = batch or BatchConfig(num_rows=4, row_length=32)
        if self.batch.row_length > self.model_config.max_len:
            raise ValueError(
                "batch row length exceeds the model's maximum input length"
            )
        self.scheduler = scheduler or DASScheduler(self.batch, SchedulerConfig())
        self.engine: InferenceEngine = ConcatEngine(
            self.batch,
            packing="in_order",
            mode=EngineMode.MEASURED,
            model_config=self.model_config,
            model_seed=seed,
            max_new_tokens=max_new_tokens,
        )
        self.max_new_tokens = max_new_tokens
        self.default_slack = default_slack
        self.admission = admission
        self.overload = overload
        self._next_id = 0
        self._responses: dict[int, Response] = {}
        # Wall-clock time a crashed engine rejoins; no slot before it.
        self._down_until = 0.0
        # Durability plane (docs/recovery.md): an admitted submit is
        # journaled before its id is returned and delivered responses
        # after they are served, so a warm restart recovers every
        # acknowledged request exactly once.  Armed lazily on the first
        # submit/step so a server built over an existing journal can
        # warm_restart() from it instead.
        self.durability = durability
        self._dur_armed = False
        # Tenancy plane (docs/tenancy.md): quota rejections surface as
        # typed QuotaExceeded (a BackpressureError subclass) from
        # submit(); per-tenant ledgers group the online ledger.
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
    def model(self):
        """The model the engine decodes with; assignable (e.g. a spy)."""
        return self.engine.model

    @model.setter
    def model(self, model) -> None:
        self.engine.model = model

    @property
    def metrics(self) -> ServingMetrics:
        return self._life.metrics

    @property
    def _queue(self) -> RequestQueue:
        return self._life.queue

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _loop_state(self) -> dict:
        return {"now": self._now(), "extra": {"next_id": self._next_id}}

    def _arm_durability(self) -> None:
        if self.durability is not None and not self._dur_armed:
            self._dur_armed = True
            self._life.arm(self._loop_state)

    def warm_restart(self) -> RestoredState:
        """Rebuild this server's state from its durability journal.

        Restores the latest snapshot, then every submit acknowledged
        after it: queued, or booked served if its response was delivered
        — exactly-once: never served twice, never lost.  Responses
        delivered before the crash are not reconstructed (their output
        tokens are not journaled); queued requests are served by the
        next steps and the deterministic model regenerates identical
        outputs.
        """
        dur = self.durability
        if dur is None:
            raise ValueError("warm restart requires a durability plane")
        state = dur.restore()
        # The online ledger books expiries and abandons at once (no
        # end-of-run sweep), so its buckets are the queue's ledgers.
        state.metrics.expired = list(state.queue.expired)
        state.metrics.abandoned = list(state.queue.abandoned)
        self._life.adopt(state)
        # A new server's clock starts at zero: resume it from the last
        # time the journal saw, so no restored request is in its future.
        behind = state.now - self._now()
        if behind > 0:
            self._t0 -= behind
        self._next_id = state.extra.get("next_id", 0)
        for req in state.recovered:
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
        life.arrive((req,))
        refusal = life.admit(req, now)
        if refusal is not None:
            cause, detail = refusal
            if cause == "queue-full":
                raise BackpressureError("queue-full", detail)
            if cause == "admission":
                raise BackpressureError(f"admission: {detail}")
            if cause == "degraded":
                raise BackpressureError(f"degraded ({ov.level.label})")
            raise QuotaExceeded(tn.key(req), detail)
        # Write-ahead: an admitted submit is durable before it is
        # acknowledged to the caller by returning the id.
        if self.durability is not None:
            self.durability.enqueue(req)
        return rid

    def step(self) -> list[Response]:
        """Run one engine slot; returns responses finished this step.

        The ledger's ``horizon`` is the server's clock at the end of its
        last step, so ``metrics.throughput`` is responses per second.
        """
        self._arm_durability()
        life = self._life
        life.tick()
        now = self._now()
        life.expire_and_shed(now)
        slot = None if now < self._down_until else life.run_slot(self.engine, now)
        life.metrics.horizon = self._now()
        if slot is None:
            return []
        if slot.down_until is not None:
            self._down_until = slot.down_until
        result = slot.result
        if result is None:
            return []
        out = [
            Response(
                request_id=req.request_id,
                output_tokens=result.outputs[req.request_id],
                submitted_at=req.arrival,
                finished_at=slot.next_at,
            )
            for req in result.served
        ]
        if self.durability is not None:
            self.durability.served(result.served, slot.next_at)
        self._responses.update((resp.request_id, resp) for resp in out)
        return out

    def poll(self, request_id: int) -> Optional[Response]:
        """Fetch a finished response (None while pending)."""
        return self._responses.get(request_id)

    def run_until_drained(self, max_steps: int = 1000) -> list[Response]:
        """Keep stepping until the queue is empty; returns all responses.

        Raises :class:`DrainExhausted` if work is still queued after
        ``max_steps``; the responses served so far stay available
        through :meth:`poll`.
        """
        out: list[Response] = []
        for _ in range(max_steps):
            if not len(self._queue):
                return out
            out.extend(self.step())
        if len(self._queue):
            raise DrainExhausted(len(self._queue), max_steps)
        return out

    @property
    def pending(self) -> int:
        return len(self._queue)
