"""Workload ``online_paper``: ``TCBServer`` over the real NumPy model.

Why it exists: it is the only path where a user waits on the wall
clock.  The model and the ``core`` kernels are ~99% of its time and the
scheduler <1%, so a kernel or model change moves it and a scheduler
change should not.

Phase A is a **closed** loop: a round submits ``round_requests`` at once
and drains them, so the server always has full batches; rounds repeat
until the phase's share of ``--seconds`` is used and the median round
gives the throughput.  Phase B is an **open** loop: one driver thread
follows a schedule of ``rate`` req/s — a fixed gap plus a seed-drawn
jitter of up to half a gap — submits everything that is due, then
``step()``s.  Latency is timed from each request's *due* time, so a
stall is charged to the requests it delays, and how late the generator
ran is reported.  At 10 req/s a step serves one request, seldom two, and
the server is busy under 40% of the time: the lower the utilisation, the
less a slow spell of the machine is amplified by queueing.

The schedule is not Poisson, on purpose.  With Poisson arrivals the
median latency of a 15 s run differed by 12-26% between seeds at every
rate from 10 to 60 req/s (bursts decide how many requests share a step,
and a step's cost grows with its batch), so no bound a gate can use
would ever resolve.  Queueing under bursts is measured, exactly, on the
simulated clock by the two ``sim_*`` workloads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from harness import (
    NO_SPANS,
    CheckFailed,
    Report,
    SpanRecorder,
    fresh_heap,
    median,
    now,
    peak_rss_mb,
    percentile,
    require,
    stratified_lengths,
    timeboxed,
)
from replay import replay_core, replay_queue
from spies import ModelSpy, SchedulerSpy, emit_das
from repro.config import BatchConfig, ModelConfig
from repro.core.packing import pack_in_order
from repro.overload.backpressure import BackpressureError
from repro.scheduling.das import DASScheduler
from repro.serving.server import TCBServer
from repro.types import Request
from repro.workload.generator import LengthDistribution


@dataclass(frozen=True)
class Params:
    round_requests: int = 120
    pool_rounds: int = 24
    warmup_requests: int = 40
    rate: float = 10.0
    jitter: float = 0.5
    slack_s: float = 2.0
    max_new_tokens: int = 8
    sampled_responses: int = 32
    # Share of --seconds per phase.  The traced run does fixed work in
    # phase A and in the replay, so its per-layer times compare across
    # commits; only its open loop follows --seconds.
    phase_a: float = 0.4
    phase_b: float = 0.6
    traced_rounds: int = 3
    traced_phase_b: float = 0.35
    traced_replay: int = 12

    def shrunk(self) -> "Params":
        return replace(
            self, round_requests=24, pool_rounds=4, warmup_requests=8,
            sampled_responses=4,
        )


MODEL = ModelConfig(
    vocab_size=256,
    d_model=128,
    num_heads=4,
    num_encoder_layers=2,
    num_decoder_layers=2,
    max_len=100,
)
BATCH = BatchConfig(num_rows=8, row_length=100)
# §6.2.1: normal lengths, mean 20, "variance" 20, clipped to 3–100.
LENGTHS = LengthDistribution(family="normal", mean=20.0, spread=20.0, low=3, high=100)


class Inputs:
    """Token lists and the open-loop schedule, all drawn from the seed."""

    def __init__(self, seed: int, open_s: float, p: Params) -> None:
        rng = np.random.default_rng(seed)
        gap = 1.0 / p.rate
        n_open = max(1, int(open_s * p.rate))
        self.due: list[float] = (
            np.arange(n_open) * gap + rng.uniform(0.0, p.jitter * gap, size=n_open)
        ).tolist()
        def tokens(n: int) -> list[list[int]]:
            return [
                rng.integers(4, MODEL.vocab_size, size=length).tolist()
                for length in stratified_lengths(n, LENGTHS, rng)
            ]

        # Stratified per round, so every round is the same amount of work.
        self.warmup = tokens(p.warmup_requests)
        self._rounds = [tokens(p.round_requests) for _ in range(p.pool_rounds)]
        self.open = tokens(n_open)

    def round(self, i: int) -> list[list[int]]:
        return self._rounds[i % len(self._rounds)]

    def open_requests(self, slack: float) -> list[Request]:
        return [
            Request(request_id=i, length=len(t), arrival=d, deadline=d + slack)
            for i, (t, d) in enumerate(zip(self.open, self.due))
        ]


class Driver:
    """The single load-generating thread, for both phases."""

    def __init__(self, p: Params, rec: Optional[SpanRecorder]) -> None:
        scheduler = DASScheduler(BATCH)
        if rec is not None:
            scheduler = SchedulerSpy(scheduler, rec)
        self.server = TCBServer(
            MODEL, BATCH, scheduler, seed=0, max_new_tokens=p.max_new_tokens
        )
        if rec is not None:
            self.server.model = ModelSpy(self.server.model, rec)
        self.rec = rec if rec is not None else NO_SPANS
        self.sent = 0
        self.refused = 0
        self.tokens: dict[int, list[int]] = {}
        self.outputs: dict[int, list[int]] = {}
        self.submit_us: list[float] = []
        self.batch_sizes: list[int] = []
        self.queue_wait_ms: list[float] = []
        self._submitted_at: dict[int, float] = {}

    def submit(self, tokens: list[int], slack: float) -> Optional[int]:
        self.sent += 1
        t = now()
        self.rec.begin("serving.server.submit")
        try:
            rid = self.server.submit(tokens, deadline_slack=slack)
        except BackpressureError:
            self.refused += 1
            return None
        finally:
            self.rec.end()
        done = now()
        self.submit_us.append((done - t) * 1e6)
        self.tokens[rid] = tokens
        self._submitted_at[rid] = done
        return rid

    def step(self) -> list:
        t = now()
        self.rec.begin("serving.server.step")
        try:
            out = self.server.step()
        finally:
            self.rec.end()
        if out:
            self.batch_sizes.append(len(out))
        for resp in out:
            self.outputs[resp.request_id] = resp.output_tokens
            self.queue_wait_ms.append((t - self._submitted_at[resp.request_id]) * 1e3)
        return out

    def closed_round(self, batch: list[list[int]]) -> tuple[float, int]:
        """Submit a whole round, drain it; returns (wall, tokens served)."""
        fresh_heap()
        t = now()
        for tokens in batch:
            self.submit(tokens, 60.0)
        served = 0
        while self.server.pending:
            for resp in self.step():
                served += len(self.tokens[resp.request_id])
        return now() - t, served

    def open_loop(self, due: list[float], tokens: list[list[int]], slack: float):
        """Follow the schedule.

        Returns ``(latency by request id, lateness of each send, lost)``
        where ``lost`` counts requests too late to send or expired in
        the queue.
        """
        latency: dict[int, float] = {}
        lateness: list[float] = []
        due_of: dict[int, float] = {}
        lost = 0
        n = len(due)
        i = 0
        fresh_heap()
        t0 = now()
        while i < n or self.server.pending:
            t = now() - t0
            while i < n and due[i] <= t:
                late = t - due[i]
                lateness.append(late)
                if late >= slack:
                    self.sent += 1
                    lost += 1
                else:
                    rid = self.submit(tokens[i], slack - late)
                    if rid is not None:
                        due_of[rid] = due[i]
                i += 1
                t = now() - t0
            if self.server.pending:
                out = self.step()
                t = now() - t0
                for resp in out:
                    latency[resp.request_id] = t - due_of.pop(resp.request_id)
            elif i < n:
                self.rec.begin("loadgen.idle")
                time.sleep(max(0.0, due[i] - (now() - t0)))
                self.rec.end()
        return latency, lateness, lost + len(due_of)


def setup(seed: int, open_s: float, p: Params):
    """Input generation + model init + one warm-up drain."""
    inputs = Inputs(seed, open_s, p)
    driver = Driver(p, None)
    driver.closed_round(inputs.warmup)
    return inputs, driver


def run(report: Report, seconds: float, p: Params, rec: Optional[SpanRecorder]) -> None:
    traced = rec is not None
    open_s = seconds * (p.traced_phase_b if traced else p.phase_b)
    setups = []
    for _ in range(1 if traced else 3):
        t = now()
        inputs, driver = setup(report.seed, open_s, p)
        setups.append(now() - t)

    if traced:
        # The same round, untraced then traced, gives the overhead; a
        # discarded round first, so that neither pays for first touches.
        driver.closed_round(inputs.round(1))
        base_wall, _ = driver.closed_round(inputs.round(0))
        with rec.span("workload.generate"):
            Inputs(report.seed, open_s, p)
        # The process is warm from the untraced server; a warm-up here
        # would only put spans and counts of its own into the trace.
        driver = Driver(p, rec)
        rec.begin("bench.online_paper")

    rounds: list[tuple[float, int]] = []
    if traced:
        for i in range(p.traced_rounds):
            rounds.append(driver.closed_round(inputs.round(i)))
    else:
        timeboxed(
            lambda i: rounds.append(driver.closed_round(inputs.round(i))),
            seconds * p.phase_a,
        )
    latency, lateness, lost = driver.open_loop(inputs.due, inputs.open, p.slack_s)
    if traced:
        rec.end()

    # ---- failures and correctness ------------------------------------ #
    server = driver.server
    late = sum(1 for x in latency.values() if x > p.slack_s)
    report.attempted = driver.sent
    report.failed = driver.refused + lost + late
    report.check("conservation", server.metrics.assert_conservation)
    report.check(
        "every request answered in time",
        lambda: require(report.failed == 0, f"{report.failed} failed"),
    )

    def sampled_equal() -> None:
        rids = sorted(driver.outputs)
        stride = max(1, len(rids) // p.sampled_responses)
        for rid in rids[::stride][: p.sampled_responses]:
            want = server.model.greedy_decode_single(
                driver.tokens[rid], p.max_new_tokens
            )
            require(
                driver.outputs[rid] == want,
                f"request {rid}: {driver.outputs[rid]} != {want}",
            )

    if not report.check("responses equal solo greedy decode", sampled_equal):
        report.failed += 1
    if not latency:
        raise CheckFailed("open loop produced no response")

    # ---- metrics ------------------------------------------------------ #
    lat = list(latency.values())
    goodput = sum(
        1.0 / len(driver.tokens[rid]) for rid, x in latency.items() if x <= p.slack_s
    )
    offered = sum(1.0 / len(tokens) for tokens in inputs.open)
    report.notes["closed_loop"] = {"rounds": len(rounds), "requests_per_round": p.round_requests}
    report.notes["open_loop"] = {"rate_per_s": p.rate, "seconds": open_s, "sent": len(lateness)}
    if not traced:
        report.put("setup_s", median(setups), "s", samples=len(setups))
        report.put("peak_rss_mb", peak_rss_mb(), "MB")
        report.put(
            "tokens_per_s", median([tok / wall for wall, tok in rounds]), "1/s",
            samples=len(rounds),
        )
        report.put(
            "host_requests_per_s",
            median([p.round_requests / wall for wall, _ in rounds]), "1/s",
            samples=len(rounds),
        )
        report.put("latency_p50_ms", percentile(lat, 50) * 1e3, "ms", samples=len(lat))
        report.put("latency_p90_ms", percentile(lat, 90) * 1e3, "ms", samples=len(lat))
        # Open loop only: its schedule is the same on every machine.
        report.put("goodput_share", goodput / offered, "share", samples=len(lat))
        return

    sched = server.scheduler
    steps = rec.durations("serving.server.step")
    report.put("trace.overhead_share", rounds[0][0] / base_wall - 1.0, "share")
    report.put("workload.generate_s", rec.total("workload.generate"), "s")
    server.model.emit(report)
    emit_das(report, rec, sched.depths, sched.fills, sum(steps))
    report.put("serving.server.submit_us_p50", percentile(driver.submit_us, 50), "us", samples=len(driver.submit_us))
    report.put("serving.server.step_s", sum(steps), "s", samples=len(steps))
    report.put("serving.server.self_s", rec.self_times()["serving.server.step"], "s")
    report.put("serving.server.batch_requests_mean", float(np.mean(driver.batch_sizes)), "count")
    report.put("serving.server.queue_wait_ms_p50", percentile(driver.queue_wait_ms, 50), "ms", samples=len(driver.queue_wait_ms))
    report.put("serving.server.latency_p99_ms", percentile(lat, 99) * 1e3, "ms", samples=len(lat))
    report.put("serving.latency_p99_s", percentile(lat, 99), "s", samples=len(lat))
    report.put("serving.goodput_utility", goodput, "utility", samples=len(lat))
    report.put("serving.ontime_share", (len(lat) - late) / len(lateness), "share")
    report.put("serving.fail_share", report.failed / report.attempted, "share")
    report.put("loadgen.late_ms_p99", percentile(lateness, 99) * 1e3, "ms", samples=len(lateness))

    replay_core(
        rec, report, sched.selections[: p.traced_replay], pack_in_order,
        BATCH.num_rows, BATCH.row_length,
        heads=MODEL.num_heads, head_dim=MODEL.head_dim,
        decode_budget=p.max_new_tokens + 1,
    )
    replay_queue(rec, report, inputs.open_requests(p.slack_s))
