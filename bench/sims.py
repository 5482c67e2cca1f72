"""Workloads ``sim_saturated`` and ``sim_planes``: the simulator loops.

``sim_saturated`` exists because its queue is deep: arrivals outrun the
engines, thousands of requests wait, and ``DAS.select`` with the
``RequestQueue`` reads does most of the host work while no plane is on.
It runs the same trace through ``ServingSimulator``, ``ClusterSimulator``
(3 engines) and ``ContinuousBatchingSimulator(admission="utility")``.

``sim_planes`` exists for the opposite reason: a shallow queue, so
``select`` is a sliver, and **every** plane on — tracer, durability with
snapshots every 5 steps, tenancy over three tenants, the overload
controller, the tail-tolerance plane with hedging, and fault-injecting
engines — so plane fan-out and snapshots are nearly all of the host
time.  It also drives ``RequestQueue`` through its write side (requeue,
abandon, shed, expire) where ``sim_saturated`` mostly reads.

Both replay one recorded arrival trace on the simulated clock (an open
loop by construction: arrivals never wait for the system).  A pass is
one full run of the trace; passes repeat until ``--seconds`` are used and
the median pass gives the host-time figures.  Figures on the simulated
clock are identical in every pass; that is checked, through the sha256
of the ledger digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

import numpy as np

from harness import (
    NO_SPANS,
    Report,
    SpanRecorder,
    fresh_heap,
    median,
    now,
    peak_rss_mb,
    percentile,
    require,
    timeboxed,
)
from replay import replay_core, replay_queue
from spies import SchedulerSpy, Spy, cost_model_spy, emit_das, engine_spy
from repro.cluster_health import (
    HealthConfig,
    HedgeConfig,
    TailToleranceConfig,
    TailTolerancePlane,
)
from repro.config import BatchConfig
from repro.core.packing import pack_first_fit
from repro.durability.digest import ledger_digest
from repro.durability.plane import DurabilityConfig, DurabilityPlane
from repro.engine.concat import ConcatEngine
from repro.engine.cost_model import GPUCostModel
from repro.faults import FaultConfig, FaultPlan, FaultyEngine
from repro.obs.recorder import Tracer
from repro.overload import (
    BreakerConfig,
    DegradationConfig,
    OverloadConfig,
    OverloadController,
    QueueLimits,
    make_shedder,
)
from repro.scheduling.das import DASScheduler
from repro.serving.cluster import ClusterSimulator
from repro.serving.continuous import ContinuousBatchingSimulator
from repro.serving.metrics import ServingMetrics
from repro.serving.simulator import ServingSimulator
from repro.tenancy import TenancyPlane, TenantClass, TenantRegistry
from repro.types import Request
from repro.workload.deadlines import DeadlineModel
from repro.workload.generator import LengthDistribution, WorkloadGenerator

# §6.2.1: normal lengths, mean 20, "variance" 20, clipped to 3–100.
LENGTHS = LengthDistribution(family="normal", mean=20.0, spread=20.0, low=3, high=100)
NUM_ENGINES = 3
TRACED_PASSES = 2
REPLAYED_SELECTIONS = 16


@dataclass(frozen=True)
class SaturatedParams:
    rate: float = 600.0
    horizon: float = 30.0
    batch: BatchConfig = BatchConfig(num_rows=64, row_length=100)
    deadlines: DeadlineModel = DeadlineModel(base_slack=4.0, jitter=0.5)
    warmup_horizon: float = 5.0
    traces: int = 1

    def shrunk(self) -> "SaturatedParams":
        return replace(self, horizon=2.0, warmup_horizon=0.5)


@dataclass(frozen=True)
class PlanesParams:
    # 150 req/s keeps the cluster overloaded for the whole trace (engine 0
    # straggles, hedges occupy a second engine), so every trace lives in
    # the same regime: shedding, brownout, expiry.  At 100 req/s some
    # traces tipped into brownout and some did not, and host time
    # differed by 40% between them.
    rate: float = 150.0
    horizon: float = 16.0
    # Six independent traces per pass: host time is snapshots, a trace
    # that takes one snapshot more costs 25% more, and the figures of one
    # trace swing by 15% with the seed; six pooled swing by less than half
    # of that.  Short traces also keep the quadratic snapshot cost low.
    traces: int = 6
    batch: BatchConfig = BatchConfig(num_rows=16, row_length=100)
    deadlines: DeadlineModel = DeadlineModel(base_slack=4.0, jitter=0.5)
    tenant_mix: tuple = (("premium", 0.2), ("standard", 0.5), ("batch", 0.3))
    checkpoint_every: int = 5
    warmup_horizon: float = 8.0
    ratio_repeats: int = 3

    def shrunk(self) -> "PlanesParams":
        return replace(self, horizon=4.0, traces=2, warmup_horizon=1.0, ratio_repeats=1)


# The batch tenant is quota-limited so the token bucket really refuses.
REGISTRY = TenantRegistry(
    {
        "premium": "premium",
        "standard": "standard",
        "batch": TenantClass(
            name="batch", weight=0.25, deadline_slack=4.0, rate=400.0, burst=800.0
        ),
    }
)


def generate(p: Any, seed: int) -> list[list[Request]]:
    """The pass's arrival traces, each from a stream of its own."""
    tenants = getattr(p, "tenant_mix", None)
    return [
        WorkloadGenerator(
            rate=p.rate,
            lengths=LENGTHS,
            deadlines=p.deadlines,
            horizon=p.horizon,
            seed=seed * 64 + j,
            tenant_mix=tenants,
            registry=REGISTRY if tenants else None,
        ).generate()
        for j in range(p.traces)
    ]


def digest_sha(metrics: ServingMetrics) -> str:
    blob = json.dumps(ledger_digest(metrics), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


class Loop:
    """One simulator to run per pass, with the handles its checks need."""

    def __init__(self, name: str, sim: Any, **handles: Any) -> None:
        self.name = name
        self.sim = sim
        self.handles = handles


@dataclass
class PassResult:
    wall: float
    metrics: dict[str, ServingMetrics]
    sha: str
    loops: list[Loop]


@dataclass
class Ledger:
    """What the metrics need from one pass's ledgers, as plain numbers."""

    loops: list[str]
    latency: list[list[float]]
    arrived: int
    served: int
    arrived_tokens: int
    on_time: int
    goodput: float
    offered: float
    hedges: int
    shed: int

    @classmethod
    def of(
        cls, metrics: dict[str, ServingMetrics], offered: float, arrived_tokens: int
    ) -> "Ledger":
        ms = list(metrics.values())
        return cls(
            loops=sorted({key.split("#")[0] for key in metrics}),
            latency=[[f - a for a, f in m.finish_times.values()] for m in ms],
            arrived=sum(m.arrived for m in ms),
            served=sum(m.num_served for m in ms),
            arrived_tokens=arrived_tokens,
            on_time=sum(m.num_on_time for m in ms),
            goodput=sum(m.goodput_utility for m in ms),
            offered=offered,
            hedges=sum(m.hedges for m in ms),
            shed=sum(m.shed for m in ms),
        )

    def latency_percentile(self, q: float) -> float:
        """Mean over the (trace, loop) runs of each run's percentile.

        Pooling would put the median of three loops with very different
        latencies into the gap between two of them, where it jumps.
        """
        return float(np.mean([percentile(run, q) for run in self.latency if run]))


def run_pass(
    build: Callable[[], list[Loop]],
    traces: list[list[Request]],
    horizon: float,
    report: Report,
    rec: Optional[SpanRecorder] = None,
) -> PassResult:
    """Every loop over every trace, timed; then the pass's checks."""
    spans = rec if rec is not None else NO_SPANS
    wall = 0.0
    metrics: dict[str, ServingMetrics] = {}
    checks: list[tuple[str, Loop, ServingMetrics]] = []
    first: list[Loop] = []
    for j, requests in enumerate(traces):
        loops = build()
        first = first or loops
        fresh_heap()
        start = now()
        for loop in loops:
            spans.begin(f"serving.{loop.name}.run")
            try:
                result = loop.sim.run(requests, horizon=horizon)
            finally:
                spans.end()
            metrics[f"{loop.name}#{j}"] = getattr(result, "metrics", result)
        wall += now() - start
        checks.extend((f"{l.name}#{j}", l, metrics[f"{l.name}#{j}"]) for l in loops)
    ok = True
    for label, loop, m in checks:
        ok &= report.check(f"{label} conservation", m.assert_conservation)
        tracer = loop.handles.get("tracer")
        if tracer is not None:
            ok &= report.check(f"{label} tracer reconcile", lambda: tracer.reconcile(m))
        tenancy = loop.handles.get("tenancy")
        if tenancy is not None:
            ok &= report.check(
                f"{label} tenant ledgers sum to the global ledger",
                lambda: tenancy.book.assert_matches(m),
            )
    report.attempted += 1
    report.failed += 0 if ok else 1
    sha = hashlib.sha256(
        "".join(digest_sha(metrics[key]) for key in sorted(metrics)).encode()
    ).hexdigest()
    return PassResult(wall, metrics, sha, first)


# --------------------------------------------------------------------- #
# Loop builders
# --------------------------------------------------------------------- #


def saturated_loops(p: SaturatedParams, rec: Optional[SpanRecorder]) -> list[Loop]:
    def scheduler():
        s = DASScheduler(p.batch)
        return SchedulerSpy(s, rec) if rec is not None else s

    cost = GPUCostModel.calibrated()
    if rec is not None:
        cost = cost_model_spy(cost, rec)

    def engine():
        e = ConcatEngine(p.batch, cost_model=cost)
        return engine_spy(e, rec) if rec is not None else e

    return [
        Loop("simulator", ServingSimulator(scheduler(), engine())),
        Loop("cluster", ClusterSimulator(scheduler(), [engine() for _ in range(NUM_ENGINES)])),
        Loop(
            "continuous",
            ContinuousBatchingSimulator(p.batch, cost_model=cost, admission="utility", seed=0),
        ),
    ]


PLANES = ("obs", "durability", "tenancy", "overload", "cluster_health", "faults")


def planes_loops(
    p: PlanesParams,
    seed: int,
    rec: Optional[SpanRecorder],
    on: tuple = PLANES,
    checkpoint_every: Optional[int] = None,
) -> list[Loop]:
    """The cluster loop with the planes named in ``on`` enabled."""
    every = p.checkpoint_every if checkpoint_every is None else checkpoint_every

    def plane(obj: Any, layer: str) -> Any:
        return obj if obj is None or rec is None else Spy(obj, rec, layer)

    cost = GPUCostModel.calibrated()
    if rec is not None:
        cost = cost_model_spy(cost, rec)
    engines = []
    for i in range(NUM_ENGINES):
        e: Any = ConcatEngine(p.batch, cost_model=cost)
        if rec is not None:
            e = engine_spy(e, rec)
        if "faults" in on:
            # Engine 0 is the gray-failing replica the hedges race; the
            # others fail, straggle and run out of memory now and then.
            # No crashes and fixed plan seeds: a crash is rare enough
            # that whether one lands in a 30 s trace would decide the
            # run, and the fault plan is configuration, not workload.
            cfg = (
                FaultConfig(
                    straggler_rate=0.5, straggler_multiplier=(4.0, 8.0), failure_rate=0.05
                )
                if i == 0
                else FaultConfig(failure_rate=0.05, straggler_rate=0.1, oom_rate=0.05)
            )
            e = FaultyEngine(e, FaultPlan(cfg, seed=i))
            if rec is not None:
                e = engine_spy(e, rec)
        engines.append(e)
    tracer = Tracer() if "obs" in on else None
    tenancy = TenancyPlane(REGISTRY, seed=0) if "tenancy" in on else None
    durability = (
        DurabilityPlane(DurabilityConfig(checkpoint_every=every))
        if "durability" in on
        else None
    )
    overload = (
        OverloadController(
            OverloadConfig(
                limits=QueueLimits(max_tokens=2 * p.batch.capacity_tokens),
                shedding=make_shedder("latest-deadline", seed=0),
                breaker=BreakerConfig(),
                degradation=DegradationConfig(shed_min_slack=0.2, brownout_min_slack=0.5),
            )
        )
        if "overload" in on
        else None
    )
    health = (
        TailTolerancePlane(
            TailToleranceConfig(
                health=HealthConfig(window=8, min_window=2),
                hedge=HedgeConfig(
                    quantile=0.9, multiplier=1.5, min_observations=4, only_suspect=False
                ),
            )
        )
        if "cluster_health" in on
        else None
    )
    scheduler: Any = DASScheduler(p.batch)
    if rec is not None:
        scheduler = SchedulerSpy(scheduler, rec)
    sim = ClusterSimulator(
        scheduler,
        engines,
        trace=plane(tracer, "obs"),
        durability=plane(durability, "durability"),
        tenancy=plane(tenancy, "tenancy"),
        overload=plane(overload, "overload"),
        health=plane(health, "cluster_health"),
    )
    return [
        Loop(
            "cluster", sim, tracer=tracer, tenancy=tenancy, durability=durability,
            scheduler=scheduler,
        )
    ]


# --------------------------------------------------------------------- #
# The two workloads
# --------------------------------------------------------------------- #


def _measure(
    report: Report,
    seconds: float,
    p: Any,
    rec: Optional[SpanRecorder],
    build: Callable[[Optional[SpanRecorder]], list[Loop]],
    root: str,
    harvest: Callable[[list[Loop]], None],
):
    """Set-up, passes and the shared checks and metrics of both workloads.

    ``harvest`` reads what it needs off the first traced pass's loops;
    nothing else of a pass outlives it.  Ledgers, journals and tracers
    are tens of thousands of live objects, and keeping them would make
    every later pass pay for them in the garbage collector.
    """
    traced = rec is not None
    seed = report.seed
    setups = []
    for _ in range(1 if traced else 3):
        t = now()
        traces = generate(p, seed)
        # Warm-up: the same loops over the head of the first trace.
        run_pass(
            lambda: build(None),
            [[r for r in traces[0] if r.arrival < p.warmup_horizon]],
            p.warmup_horizon, Report(report.workload, seed, traced),
        )
        setups.append(now() - t)
    everything = [r for requests in traces for r in requests]
    offered = sum(r.utility for r in everything)
    tokens = sum(r.length for r in everything)

    walls: list[float] = []
    shas: list[str] = []
    led: Optional[Ledger] = None

    def one_pass(r: Optional[SpanRecorder], keep: bool = True) -> float:
        nonlocal led
        result = run_pass(lambda: build(r), traces, p.horizon, report, r)
        shas.append(result.sha)
        if keep:
            walls.append(result.wall)
            if led is None:
                runs_per_trace = len(result.metrics) // len(traces)
                led = Ledger.of(
                    result.metrics, offered * runs_per_trace, tokens * runs_per_trace
                )
                if r is not None:
                    harvest(result.loops)
        return result.wall

    if traced:
        base_wall = one_pass(None, keep=False)
        with rec.span("workload.generate"):
            generate(p, seed)
        with rec.span(root):
            for i in range(TRACED_PASSES):
                rec.run_id = i
                one_pass(rec)
    else:
        base_wall = 0.0
        timeboxed(lambda i: one_pass(None), seconds, min_units=2)

    if not report.check(
        "ledger digest identical in every pass",
        lambda: require(len(set(shas)) == 1, f"digests differ: {sorted(set(shas))}"),
    ):
        report.failed += 1
    report.exact["ledger_sha256"] = shas[0]
    report.notes["pass_walls_s"] = [round(x, 4) for x in walls]
    report.notes["requests"] = sum(len(requests) for requests in traces)

    wall = median(walls)
    if not traced:
        p50, p90 = led.latency_percentile(50) * 1e3, led.latency_percentile(90) * 1e3
        samples = sum(len(run) for run in led.latency)
        report.put("setup_s", median(setups), "s", samples=len(setups))
        report.put("peak_rss_mb", peak_rss_mb(), "MB")
        report.put("host_requests_per_s", led.arrived / wall, "1/s", samples=len(walls))
        report.put("tokens_per_s", led.arrived_tokens / wall, "1/s", samples=len(walls))
        # Simulated clock: the same in every pass and on every machine.
        report.put("latency_p50_ms", p50, "ms", samples=samples)
        report.put("latency_p90_ms", p90, "ms", samples=samples)
        report.put("goodput_share", led.goodput / led.offered, "share", samples=led.served)
        report.exact.update(
            latency_p50_ms=p50, latency_p90_ms=p90, goodput_utility=led.goodput,
            goodput_share=led.goodput / led.offered,
        )
        return traces, led, base_wall

    n = len(walls)
    self_t = rec.self_times()
    report.put("trace.overhead_share", walls[0] / base_wall - 1.0, "share")
    report.put("workload.generate_s", rec.total("workload.generate"), "s")
    # Host times are per pass: the traced run makes TRACED_PASSES of them.
    for name in led.loops:
        key = f"serving.{name}.run"
        report.put(f"{key}_s", rec.total(key) / n, "s", samples=n)
        report.put(f"serving.{name}.self_s", self_t[key] / n, "s", samples=n)
    cm = [t for name, t in self_t.items() if name.startswith("engine.cost_model.")]
    cm_calls = sum(1 for name in rec.names if name.startswith("engine.cost_model."))
    report.put("engine.cost_model.layout_time_s", sum(cm) / n, "s", samples=cm_calls)
    report.put("engine.cost_model.calls", cm_calls / n, "count")
    report.put("serving.latency_p99_s", led.latency_percentile(99), "s", samples=len(led.latency))
    report.put("serving.goodput_utility", led.goodput, "utility", samples=led.served)
    report.put("serving.ontime_share", led.on_time / led.arrived, "share")
    report.put("serving.fail_share", report.failed / report.attempted, "share")
    return traces, led, base_wall


def _scheduler_metrics(
    report: Report, rec: SpanRecorder, spies: list[SchedulerSpy], loops: tuple
) -> list:
    """``scheduling.das.*`` per pass; returns the selections to replay.

    Called by ``harvest`` after the first traced pass, so the spans seen
    are those of one pass.
    """
    emit_das(
        report, rec,
        [d for s in spies for d in s.depths],
        [f for s in spies for f in s.fills],
        sum(rec.total(f"serving.{name}.run") for name in loops),
    )
    return [sel for s in spies for sel in s.selections][:REPLAYED_SELECTIONS]


def run_saturated(
    report: Report, seconds: float, p: SaturatedParams, rec: Optional[SpanRecorder]
) -> None:
    selections: list = []

    def harvest(loops: list[Loop]) -> None:
        spies = [l.sim.scheduler for l in loops if hasattr(l.sim, "scheduler")]
        selections.extend(
            _scheduler_metrics(report, rec, spies, ("simulator", "cluster", "continuous"))
        )

    traces, _, _ = _measure(
        report, seconds, p, rec, lambda r: saturated_loops(p, r), "bench.sim_saturated", harvest
    )
    if rec is None:
        return
    replay_core(rec, report, selections, pack_first_fit, p.batch.num_rows, p.batch.row_length)
    replay_queue(rec, report, traces[0])


def run_planes(
    report: Report, seconds: float, p: PlanesParams, rec: Optional[SpanRecorder]
) -> None:
    selections: list = []

    def harvest(loops: list[Loop]) -> None:
        handles = loops[0].handles
        selections.extend(_scheduler_metrics(report, rec, [handles["scheduler"]], ("cluster",)))
        journal = handles["durability"].journal
        ledgers = handles["tenancy"].book.ledgers.values()
        report.put("durability.snapshots", len(journal.snapshots), "count")
        report.put("durability.journal_records", len(journal.records), "count")
        report.put("obs.spans", len(handles["tracer"].spans()), "count")
        report.put("tenancy.quota_rejected", sum(l.quota_rejected for l in ledgers), "count")

    traces, led, all_on_wall = _measure(
        report, seconds, p, rec, lambda r: planes_loops(p, report.seed, r),
        "bench.sim_planes", harvest,
    )
    if rec is None:
        return
    layers = rec.layer_self_times()
    for plane in PLANES:
        report.put(f"{plane}.self_s", layers.get(plane, 0.0) / TRACED_PASSES, "s")
    report.put("cluster_health.hedges", led.hedges, "count")
    report.put("overload.shed", led.shed, "count")

    # One plane on at a time against all off: host time with no spy in
    # place, so these runs are measurements of their own, not spans.
    variants: dict[str, dict] = {
        "off": dict(on=()),
        "obs.enabled": dict(on=("obs",)),
        "durability.k0": dict(on=("durability",), checkpoint_every=0),
        "durability.k5": dict(on=("durability",), checkpoint_every=5),
        "durability.k1": dict(on=("durability",), checkpoint_every=1),
        "tenancy.enabled": dict(on=("tenancy",)),
        "overload.enabled": dict(on=("overload",)),
        "cluster_health.enabled": dict(on=("cluster_health",)),
        "faults.enabled": dict(on=("faults",)),
    }
    walls: dict[str, list[float]] = {name: [] for name in variants}
    scratch = Report(report.workload, report.seed, True)
    for _ in range(p.ratio_repeats):
        for name, kw in variants.items():
            walls[name].append(
                run_pass(
                    lambda: planes_loops(p, report.seed, None, **kw),
                    traces[:1], p.horizon, scratch,
                ).wall
            )
    report.check_errors.extend(scratch.check_errors)
    off = median(walls["off"])
    for name in variants:
        if name != "off":
            report.put(f"{name}_cost_ratio", median(walls[name]) / off, "ratio", samples=p.ratio_repeats)
    report.notes["all_planes_cost_ratio"] = all_on_wall / len(traces) / off

    replay_core(rec, report, selections, pack_first_fit, p.batch.num_rows, p.batch.row_length)
    replay_queue(rec, report, traces[0])
