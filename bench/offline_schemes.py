"""Workload ``offline_schemes``: one backlog drained by all four schemes.

Why it exists: it measures the paper's kernel claim on the real NumPy
path, and it uses the model differently from ``online_paper`` — wide
rows (Fig. 13 geometry, 10 x 400), encoder-heavy, ``att_cb_s`` against
the masked full-width ``att_cb``, 4 decode steps instead of 8 — so a
decode-only gain that costs the encoder shows here.

Closed loop, no arrivals: a round takes one backlog of token-carrying
requests and drains it under each scheme by ``select -> apply_slot_size
-> engine.serve -> remove_served`` (``EngineMode.MEASURED``).  Rounds
repeat with a fresh backlog until ``--seconds`` are used; every figure is
the median round.  A request's latency is the time from the start of its
pass to the end of the batch that served it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

import numpy as np

from harness import (
    Report,
    SpanRecorder,
    fresh_heap,
    median,
    now,
    peak_rss_mb,
    percentile,
    require,
    spearman,
    stratified_lengths,
    timeboxed,
)
from replay import replay_core, replay_queue
from spies import ModelSpy, SchedulerSpy, emit_das, engine_spy
from repro.config import BatchConfig, ModelConfig
from repro.core.packing import pack_first_fit
from repro.engine import (
    ConcatEngine,
    EngineMode,
    NaiveEngine,
    SlottedConcatEngine,
    TurboEngine,
)
from repro.model.seq2seq import Seq2SeqModel
from repro.scheduling.das import DASScheduler
from repro.scheduling.queue import RequestQueue
from repro.scheduling.slotted_das import SlottedDASScheduler
from repro.serving.common import apply_slot_size
from repro.types import Request
from repro.workload.generator import LengthDistribution


@dataclass(frozen=True)
class Params:
    backlog: int = 200
    pool_rounds: int = 8
    warmup_requests: int = 10
    sampled_encodings: int = 6
    # The traced run does fixed work, so per-layer times compare across commits.
    traced_rounds: int = 1
    traced_replay: int = 2

    def shrunk(self) -> "Params":
        return replace(self, backlog=20, pool_rounds=2, warmup_requests=4, sampled_encodings=2)


MODEL = ModelConfig(
    vocab_size=256,
    d_model=128,
    num_heads=4,
    num_encoder_layers=2,
    num_decoder_layers=2,
    max_len=400,
)
BATCH = BatchConfig(num_rows=10, row_length=400)
LENGTHS = LengthDistribution(family="normal", mean=20.0, spread=10.0, low=3, high=100)
SCHEMES = {
    "naive": (NaiveEngine, DASScheduler),
    "turbo": (TurboEngine, DASScheduler),
    "concat": (ConcatEngine, DASScheduler),
    "slotted": (SlottedConcatEngine, SlottedDASScheduler),
}
TCB = ("concat", "slotted")
# What InferenceEngine._execute_measured decodes per batch.
ENGINE_DECODE_TOKENS = 4


class Inputs:
    def __init__(self, seed: int, p: Params) -> None:
        rng = np.random.default_rng(seed)
        ids = iter(range(p.warmup_requests + p.backlog * p.pool_rounds))

        def requests(n: int) -> list[Request]:
            return [
                Request(
                    request_id=next(ids),
                    length=length,
                    tokens=tuple(int(t) for t in rng.integers(4, MODEL.vocab_size, size=length)),
                )
                for length in stratified_lengths(n, LENGTHS, rng)
            ]

        # Stratified per backlog, so every round is the same amount of work.
        self.warmup = requests(p.warmup_requests)
        self._backlogs = [requests(p.backlog) for _ in range(p.pool_rounds)]

    def backlog(self, i: int) -> list[Request]:
        return self._backlogs[i % len(self._backlogs)]


@dataclass
class Pass:
    """One scheme draining one backlog."""

    wall: float = 0.0
    tokens: int = 0
    utility: float = 0.0
    unserved: int = 0
    served_ids: list[int] = field(default_factory=list)
    completion: list[float] = field(default_factory=list)
    measured: list[float] = field(default_factory=list)
    predicted: list[float] = field(default_factory=list)
    layouts: int = 0
    useful: int = 0
    padded: int = 0
    last_layout: Any = None


class Scheme:
    """An engine with its scheduler; spied when a recorder is given."""

    def __init__(self, name: str, rec: Optional[SpanRecorder], model: Any) -> None:
        engine_cls, scheduler_cls = SCHEMES[name]
        self.name = name
        self.engine = engine_cls(BATCH, mode=EngineMode.MEASURED, model_config=MODEL)
        self.scheduler = scheduler_cls(BATCH)
        self.serve: Callable = self.engine.serve
        if rec is not None:
            # The engine builds its model lazily and privately; handing it
            # the spied one is the only way to see encode and decode apart.
            self.engine._model = model
            self.scheduler = SchedulerSpy(self.scheduler, rec)
            self.serve = engine_spy(self.engine, rec).serve

    def drain(self, backlog: list[Request]) -> Pass:
        out = Pass()
        queue = RequestQueue()
        queue.extend(backlog)
        cost = self.engine.cost_model
        fresh_heap()
        start = now()
        while len(queue):
            decision = self.scheduler.select(queue.waiting(0.0), 0.0)
            apply_slot_size(self.engine, decision)
            result = self.serve(decision.selected(), now=0.0)
            if not result.served:
                break
            queue.remove_served(result.served)
            done = now() - start
            out.completion.extend([done] * len(result.served))
            out.served_ids.extend(r.request_id for r in result.served)
            out.measured.append(result.latency)
            out.predicted.append(sum(cost.layout_time(l) for l in result.layouts))
            out.layouts += len(result.layouts)
            out.useful += result.stats.useful_tokens
            out.padded += result.stats.padded_tokens
            out.tokens += sum(r.length for r in result.served)
            out.utility += sum(r.utility for r in result.served)
            out.last_layout = result.layouts[-1]
        out.wall = now() - start
        out.unserved = len(queue)
        return out


def setup(seed: int, p: Params):
    """Input generation + engine and model init + one warm-up batch each."""
    inputs = Inputs(seed, p)
    schemes = {name: Scheme(name, None, None) for name in SCHEMES}
    for scheme in schemes.values():
        scheme.drain(inputs.warmup)
    return inputs, schemes


def run_round(schemes: dict[str, Scheme], backlog: list[Request]) -> dict[str, Pass]:
    return {name: scheme.drain(backlog) for name, scheme in schemes.items()}


def check_encodings(model: Seq2SeqModel, pss: Pass, n: int) -> None:
    """Per-request encoder outputs inside a batch equal ``encode_single``."""
    layout = pss.last_layout
    slotted = layout.scheme == "slotted" and any(row.slots for row in layout.rows)
    memory = model.encode_layout(layout, slotted=slotted)
    segments = layout.segments()
    stride = max(1, len(segments) // n)
    for k, seg in segments[::stride][:n]:
        alone = model.encode_single(seg.request.tokens)[0]
        diff = float(np.max(np.abs(memory[k, seg.start : seg.end] - alone)))
        require(diff <= 1e-8, f"request {seg.request.request_id}: max |diff| {diff:.3e}")


def run(report: Report, seconds: float, p: Params, rec: Optional[SpanRecorder]) -> None:
    traced = rec is not None
    setups = []
    for _ in range(1 if traced else 3):
        t = now()
        inputs, schemes = setup(report.seed, p)
        setups.append(now() - t)
    model = Seq2SeqModel(MODEL, seed=0)

    rounds: list[dict[str, Pass]] = []
    if traced:
        # The same backlog, untraced then traced, gives the overhead; a
        # discarded round first, so that neither pays for first touches.
        run_round(schemes, inputs.backlog(1))
        base = run_round(schemes, inputs.backlog(0))
        with rec.span("workload.generate"):
            Inputs(report.seed, p)
        # No warm-up under the spies: the process is warm, and a warm-up
        # would put spans and counts of its own into the trace.
        spied = ModelSpy(model, rec)
        schemes = {name: Scheme(name, rec, spied) for name in SCHEMES}
        rec.begin("bench.offline_schemes")
        for i in range(p.traced_rounds):
            rounds.append(run_round(schemes, inputs.backlog(i)))
        rec.end()
    else:
        timeboxed(lambda i: rounds.append(run_round(schemes, inputs.backlog(i))), seconds)

    # ---- failures and correctness ------------------------------------ #
    for i, rnd in enumerate(rounds):
        want = sorted(r.request_id for r in inputs.backlog(i))
        for name, pss in rnd.items():
            report.attempted += len(want)
            report.failed += pss.unserved
            report.check(
                f"{name} serves each request exactly once (round {i})",
                lambda pss=pss: require(sorted(pss.served_ids) == want, "served ids differ from the backlog"),
            )
    for name, pss in rounds[0].items():
        if not report.check(
            f"{name} encoder outputs equal encode_single",
            lambda pss=pss: check_encodings(model, pss, p.sampled_encodings),
        ):
            report.failed += 1

    # ---- metrics ------------------------------------------------------ #
    def per_round(fn: Callable[[dict[str, Pass]], float]) -> float:
        return median([fn(rnd) for rnd in rounds])

    tcb_wall = lambda rnd: sum(rnd[s].wall for s in TCB)
    offered = median([sum(r.utility for r in inputs.backlog(i)) for i in range(len(rounds))])
    engine_rate = {
        name: per_round(lambda rnd: rnd[name].tokens / rnd[name].wall) for name in SCHEMES
    }
    report.notes["rounds"] = len(rounds)
    report.notes["backlog"] = p.backlog
    if not traced:
        report.put("setup_s", median(setups), "s", samples=len(setups))
        report.put("peak_rss_mb", peak_rss_mb(), "MB")
        report.put(
            "tokens_per_s",
            per_round(lambda rnd: sum(rnd[s].tokens for s in TCB) / tcb_wall(rnd)),
            "1/s", samples=len(rounds),
        )
        report.put(
            "host_requests_per_s",
            per_round(lambda rnd: sum(len(rnd[s].served_ids) for s in TCB) / tcb_wall(rnd)),
            "1/s", samples=len(rounds),
        )
        for q, key in ((50, "latency_p50_ms"), (90, "latency_p90_ms")):
            report.put(
                key,
                1e3 * float(np.mean([
                    per_round(lambda rnd: percentile(rnd[s].completion, q)) for s in TCB
                ])),
                "ms", samples=len(rounds) * p.backlog * len(TCB),
            )
        report.put(
            "goodput_share",
            per_round(lambda rnd: sum(rnd[s].utility for s in TCB)) / (len(TCB) * offered),
            "share", samples=len(rounds),
        )
        report.notes["engine_tokens_per_s"] = engine_rate
        return

    base_wall = sum(pss.wall for pss in base.values())
    first_wall = sum(pss.wall for pss in rounds[0].values())
    report.put("trace.overhead_share", first_wall / base_wall - 1.0, "share")
    report.put("workload.generate_s", rec.total("workload.generate"), "s")
    spied.emit(report)
    for name in SCHEMES:
        report.put(f"engine.{name}.tokens_per_s", engine_rate[name], "1/s", samples=len(rounds))
        first = rounds[0][name]
        report.put(f"engine.{name}.padding_share", first.padded / (first.useful + first.padded), "share")
        report.put(f"engine.{name}.batches", first.layouts, "count")
    report.put(
        "engine.slotted_speedup_measured",
        per_round(lambda rnd: rnd["concat"].wall / rnd["slotted"].wall), "ratio",
        samples=len(rounds),
    )
    report.put(
        "engine.slotted_speedup_model",
        sum(rounds[0]["concat"].predicted) / sum(rounds[0]["slotted"].predicted), "ratio",
    )
    # How the analytic model and the measurement rank the schemes.
    report.notes["round0_seconds"] = {
        name: {"measured": pss.wall, "cost_model": sum(pss.predicted)}
        for name, pss in rounds[0].items()
    }
    batches = [pss for rnd in rounds for pss in rnd.values()]
    measured = [x for pss in batches for x in pss.measured]
    predicted = [x for pss in batches for x in pss.predicted]
    report.put(
        "engine.cost_model.rank_agreement", spearman(predicted, measured), "rho",
        samples=len(measured),
    )
    das = schemes["concat"].scheduler
    emit_das(report, rec, das.depths, das.fills, rec.total("bench.offline_schemes"))
    report.put(
        "scheduling.slotted_das.select_s", rec.total("scheduling.slotted_das.select"), "s",
        samples=rec.count("scheduling.slotted_das.select"),
    )
    completion = [x for rnd in rounds for s in TCB for x in rnd[s].completion]
    report.put("serving.latency_p99_s", percentile(completion, 99), "s", samples=len(completion))
    report.put("serving.goodput_utility", sum(rounds[0][s].utility for s in TCB), "utility")
    report.put("serving.ontime_share", 1.0 - report.failed / report.attempted, "share")
    report.put("serving.fail_share", report.failed / report.attempted, "share")

    with rec.span("bench.replay_plan"):
        for name, scheme in schemes.items():
            for selected, slot_size in scheme.scheduler.selections:
                if slot_size is not None:
                    scheme.engine.set_slot_size(slot_size)
                with rec.span("engine.plan"):
                    scheme.engine.plan(selected)
    report.put("engine.plan_s", rec.total("engine.plan"), "s", samples=rec.count("engine.plan"))
    replay_core(
        rec, report, das.selections[: p.traced_replay], pack_first_fit,
        BATCH.num_rows, BATCH.row_length,
        heads=MODEL.num_heads, head_dim=MODEL.head_dim,
        decode_budget=ENGINE_DECODE_TOKENS + 1,
    )
    replay_queue(
        rec, report,
        [replace(r, request_id=i, tokens=None, arrival=0.01 * i, deadline=0.01 * i + 2.0)
         for i, r in enumerate(inputs.backlog(0) * 8)],
    )
