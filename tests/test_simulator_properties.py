"""Hypothesis stress tests: serving-loop invariants on random workloads.

These complement ``tests/test_simulator.py``'s example-based tests with
randomized traces: whatever the arrival pattern, lengths and deadlines,
the serving loop must conserve requests, respect deadlines at selection
time, keep time monotone and never serve anything twice.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BatchConfig, SchedulerConfig
from repro.engine.concat import ConcatEngine
from repro.engine.naive import NaiveEngine
from repro.engine.slotted import SlottedConcatEngine
from repro.engine.turbo import TurboEngine
from repro.obs.recorder import Tracer
from repro.obs.spans import EventKind
from repro.scheduling.baselines import DEFScheduler, FCFSScheduler, SJFScheduler
from repro.scheduling.das import DASScheduler
from repro.scheduling.slotted_das import SlottedDASScheduler
from repro.serving.simulator import ServingSimulator
from repro.types import Request


def _random_requests(seed: int, n: int, max_len: int = 25):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        arrival = float(rng.uniform(0, 4.0))
        out.append(
            Request(
                request_id=i,
                length=int(rng.integers(1, max_len + 1)),
                arrival=arrival,
                deadline=arrival + float(rng.uniform(0.1, 4.0)),
            )
        )
    return out


def _make_stack(kind: str, batch: BatchConfig):
    if kind == "das-concat":
        return DASScheduler(batch, SchedulerConfig()), ConcatEngine(batch)
    if kind == "sdas-slotted":
        return (
            SlottedDASScheduler(batch, SchedulerConfig()),
            SlottedConcatEngine(batch),
        )
    if kind == "fcfs-naive":
        return FCFSScheduler(batch), NaiveEngine(batch)
    if kind == "sjf-turbo":
        return SJFScheduler(batch), TurboEngine(batch)
    if kind == "def-concat":
        return DEFScheduler(batch), ConcatEngine(batch)
    raise ValueError(kind)


STACKS = ["das-concat", "sdas-slotted", "fcfs-naive", "sjf-turbo", "def-concat"]


@pytest.mark.parametrize("kind", STACKS)
class TestServingInvariants:
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 60))
    @settings(max_examples=15, deadline=None)
    def test_conservation_and_uniqueness(self, kind, seed, n):
        batch = BatchConfig(num_rows=3, row_length=25)
        scheduler, engine = _make_stack(kind, batch)
        requests = _random_requests(seed, n)
        tracer = Tracer()
        sim = ServingSimulator(scheduler, engine, trace=tracer)
        m = sim.run(list(requests), horizon=10.0).metrics

        served_ids = [r.request_id for r in m.served]
        expired_ids = [r.request_id for r in m.expired]
        # Every request accounted for exactly once.
        assert sorted(served_ids + expired_ids) == sorted(
            r.request_id for r in requests
        )
        assert len(set(served_ids)) == len(served_ids)

        # Slots are time-monotone; selections respect Eq. 12 at start.
        starts = [b.t_start for b in tracer.batches]
        assert starts == sorted(starts)
        executed = 0
        for r in requests:
            for ev in tracer.events[r.request_id]:
                if ev.kind is EventKind.EXECUTED:
                    executed += 1
                    assert r.arrival <= ev.t <= r.deadline
        assert executed == len(served_ids)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_finish_times_consistent(self, kind, seed):
        batch = BatchConfig(num_rows=3, row_length=25)
        scheduler, engine = _make_stack(kind, batch)
        requests = _random_requests(seed, 30)
        m = (
            ServingSimulator(scheduler, engine)
            .run(list(requests), horizon=10.0)
            .metrics
        )
        assert set(m.finish_times) == {r.request_id for r in m.served}
        for rid, (arrival, finish) in m.finish_times.items():
            assert finish > arrival
        assert m.total_engine_time >= 0
        assert m.num_batches >= (1 if m.served else 0)
