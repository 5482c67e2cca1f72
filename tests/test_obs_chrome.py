"""Golden schema + round-trip tests for the Chrome trace exporter.

The ``trace_event`` schema (envelope keys, ``ph`` phase letters,
pid/tid lane conventions, the ``args.t0``/``t1`` raw-sim-time carry) is
a contract with external tooling (``chrome://tracing``, Perfetto) and
with :func:`repro.obs.export.spans_from_chrome_trace`.  These tests pin
it: a change that breaks any of them breaks saved traces in the wild.
"""

from __future__ import annotations

import json

from repro.config import BatchConfig
from repro.engine.concat import ConcatEngine
from repro.faults.engine import FaultyEngine
from repro.faults.plan import FaultConfig, FaultPlan
from repro.obs.export import (
    PID_ENGINES,
    PID_REQUESTS,
    PID_SCHEDULER,
    TIME_SCALE,
    ascii_timeline,
    chrome_trace,
    chrome_trace_json,
    spans_from_chrome_trace,
    spans_to_csv,
    validate_chrome_trace,
)
from repro.obs.recorder import Tracer
from repro.scheduling.das import DASScheduler
from repro.serving.simulator import ServingSimulator
from repro.workload.deadlines import DeadlineModel
from repro.workload.generator import LengthDistribution, WorkloadGenerator

import pytest


@pytest.fixture(scope="module")
def traced_run():
    batch = BatchConfig(num_rows=8, row_length=64)
    tracer = Tracer()
    plan = FaultPlan(FaultConfig.chaos(0.2, downtime=0.2), seed=11)
    sim = ServingSimulator(
        DASScheduler(batch),
        FaultyEngine(ConcatEngine(batch), plan),
        trace=tracer,
    )
    wl = WorkloadGenerator(
        rate=120.0,
        lengths=LengthDistribution(family="normal", mean=12, spread=8, low=3, high=48),
        deadlines=DeadlineModel(base_slack=2.0),
        horizon=2.0,
        seed=11,
    )
    metrics = sim.run(wl).metrics
    return tracer, metrics


class TestChromeSchema:
    """Golden pins: keys, phase letters, lane conventions."""

    def test_envelope(self, traced_run):
        tracer, _ = traced_run
        doc = chrome_trace(tracer)
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["generator"] == "repro.obs"
        assert set(doc["otherData"]["outcomes"]) == {
            "served", "expired", "rejected", "abandoned",
        }

    def test_event_required_keys_and_phases(self, traced_run):
        tracer, _ = traced_run
        doc = chrome_trace(tracer)
        phases_seen = set()
        for ev in doc["traceEvents"]:
            assert {"name", "cat", "ph", "ts", "pid", "tid", "args"} <= set(ev)
            assert ev["ph"] in ("M", "X", "i")
            phases_seen.add(ev["ph"])
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
            if ev["ph"] == "i":
                assert ev["s"] == "t"  # thread-scoped instant
        # A fault-injected run exercises all three phase letters.
        assert phases_seen == {"M", "X", "i"}

    def test_lane_conventions(self, traced_run):
        tracer, _ = traced_run
        doc = chrome_trace(tracer)
        assert (PID_REQUESTS, PID_ENGINES, PID_SCHEDULER) == (1, 2, 3)
        meta = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
        assert [ev["args"]["name"] for ev in meta] == [
            "requests", "engines", "scheduler",
        ]
        for ev in doc["traceEvents"]:
            if ev["cat"] == "request":
                assert ev["pid"] == PID_REQUESTS
                assert ev["tid"] == ev["args"]["request_id"]
            elif ev["cat"] == "engine":
                assert ev["pid"] == PID_ENGINES
            elif ev["cat"] == "scheduler":
                assert ev["pid"] == PID_SCHEDULER
                assert ev["tid"] == 0

    def test_timestamps_are_scaled_microseconds(self, traced_run):
        tracer, _ = traced_run
        doc = chrome_trace(tracer)
        for ev in doc["traceEvents"]:
            if ev["cat"] == "request":
                assert ev["ts"] == ev["args"]["t0"] * TIME_SCALE

    def test_batch_events_carry_engine_annotations(self, traced_run):
        tracer, _ = traced_run
        doc = chrome_trace(tracer)
        batches = [
            ev
            for ev in doc["traceEvents"]
            if ev["cat"] == "engine" and ev["name"] == "batch"
        ]
        assert batches
        for ev in batches:
            args = ev["args"]
            assert "padding_efficiency" in args
            assert "memory_watermark_bytes" in args
            assert "cost_total" in args

    def test_scheduler_events_carry_das_decision(self, traced_run):
        tracer, _ = traced_run
        doc = chrome_trace(tracer)
        decisions = [
            ev for ev in doc["traceEvents"] if ev["cat"] == "scheduler"
        ]
        assert decisions
        for ev in decisions:
            assert ev["name"] == "das"
            assert "eta" in ev["args"]
            assert "q" in ev["args"]
            assert "num_utility_dominant" in ev["args"]
            assert "num_deadline_aware" in ev["args"]

    def test_validator_accepts_export_and_rejects_mutations(self, traced_run):
        tracer, _ = traced_run
        doc = chrome_trace(tracer)
        validate_chrome_trace(doc)

        bad = json.loads(chrome_trace_json(tracer))
        del bad["traceEvents"][0]["name"]
        with pytest.raises(ValueError, match="missing required key"):
            validate_chrome_trace(bad)

        bad = json.loads(chrome_trace_json(tracer))
        bad["traceEvents"][3]["ph"] = "B"
        with pytest.raises(ValueError, match="unknown ph"):
            validate_chrome_trace(bad)

        bad = json.loads(chrome_trace_json(tracer))
        bad["traceEvents"][3]["pid"] = 9
        with pytest.raises(ValueError, match="unknown pid"):
            validate_chrome_trace(bad)

        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})


class TestRoundTrip:
    def test_export_parse_reconstruct_is_exact(self, traced_run):
        tracer, _ = traced_run
        # Through actual JSON text, not just the dict: the contract is
        # with the serialized artifact.
        doc = json.loads(chrome_trace_json(tracer))
        rebuilt = spans_from_chrome_trace(doc)
        original = sorted(
            tracer.spans(),
            key=lambda s: (s.request_id, s.t_start, s.t_end, s.phase),
        )
        assert len(rebuilt) == len(original)
        for a, b in zip(rebuilt, original):
            assert a.request_id == b.request_id
            assert a.phase == b.phase
            assert a.t_start == b.t_start  # exact float equality
            assert a.t_end == b.t_end
            assert a.duration == b.duration

    def test_csv_has_one_row_per_span(self, traced_run):
        tracer, _ = traced_run
        lines = spans_to_csv(tracer).strip().splitlines()
        assert lines[0] == "request_id,phase,t_start,t_end,duration,attrs"
        assert len(lines) == 1 + len(tracer.spans())

    def test_ascii_timeline_renders_and_validates_points(self, traced_run):
        tracer, _ = traced_run
        chart = ascii_timeline(tracer, num_points=20)
        for lane in ("queue depth", "in batch", "served cum", "failed cum"):
            assert lane in chart
        with pytest.raises(ValueError):
            ascii_timeline(tracer, num_points=1)
