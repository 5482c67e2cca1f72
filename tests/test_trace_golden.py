"""Cross-commit golden: everything a reader can get out of a ``Tracer``.

``tests/fixtures/tracer_golden.json`` was generated at the commit
*before* the tracer kept one append-only log (``python
tests/test_trace_golden.py --write``), when every emission was stored as
a ``RequestEvent`` in ``events[rid]`` and again as a sink tuple.  The
test re-runs the same two seeded all-planes cluster runs — one
uninterrupted, one crashed at a dispatch and restored from the journal —
and requires ``trace_digest``, ``spans()``, ``outcome_counts()``,
``duplicate_terminals`` and the Chrome export to be byte-equal.

The only wall-clock value a trace carries is the scheduler's decision
runtime; it is zeroed before hashing (the Chrome export prints it), and
the export's ``otherData.outcomes`` is key-sorted because its order
follows the process's string hash seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.cluster_health import (
    HealthConfig,
    HedgeConfig,
    TailToleranceConfig,
    TailTolerancePlane,
)
from repro.config import BatchConfig
from repro.durability import DurabilityConfig, DurabilityPlane, trace_digest
from repro.engine.concat import ConcatEngine
from repro.faults import FaultConfig, FaultPlan, FaultyEngine
from repro.faults.plan import SchedulerCrash, SchedulerCrashed
from repro.obs.export import chrome_trace
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
from repro.tenancy import TenancyPlane, TenantClass, TenantRegistry
from repro.workload.deadlines import DeadlineModel
from repro.workload.generator import LengthDistribution, WorkloadGenerator

FIXTURE = Path(__file__).parent / "fixtures" / "tracer_golden.json"

BATCH = BatchConfig(num_rows=16, row_length=100)
RATE, ARRIVALS, HORIZON, SEED = 150.0, 6.0, 9.0, 3
CRASH = SchedulerCrash(23, phase="dispatch")
REGISTRY = TenantRegistry(
    {
        "premium": "premium",
        "standard": "standard",
        "batch": TenantClass(
            name="batch", weight=0.25, deadline_slack=4.0, rate=400.0, burst=800.0
        ),
    }
)


def _workload():
    return WorkloadGenerator(
        rate=RATE,
        lengths=LengthDistribution(
            family="normal", mean=30.0, spread=35.0, low=3, high=140
        ),
        deadlines=DeadlineModel(base_slack=4.0, jitter=0.5),
        horizon=ARRIVALS,
        seed=SEED,
        tenant_mix=(("premium", 0.2), ("standard", 0.5), ("batch", 0.3)),
        registry=REGISTRY,
    ).generate()


def _cluster(tracer: Tracer, durability: DurabilityPlane) -> ClusterSimulator:
    """All six planes: tracer, durability, tenancy, overload, health, faults."""
    # Engine 1 fails often enough to exhaust retry budgets (abandons).
    return ClusterSimulator(
        DASScheduler(BATCH),
        [
            FaultyEngine(
                ConcatEngine(BATCH),
                FaultPlan(
                    FaultConfig(
                        failure_rate=0.4 if i == 1 else 0.1,
                        straggler_rate=0.1,
                        oom_rate=0.05,
                    ),
                    seed=SEED * 10 + i,
                ),
            )
            for i in range(3)
        ],
        trace=tracer,
        durability=durability,
        tenancy=TenancyPlane(REGISTRY, seed=0),
        overload=OverloadController(
            OverloadConfig(
                limits=QueueLimits(max_tokens=2 * BATCH.capacity_tokens),
                shedding=make_shedder("latest-deadline", seed=0),
                breaker=BreakerConfig(),
                degradation=DegradationConfig(
                    shed_min_slack=0.2, brownout_min_slack=0.5
                ),
            )
        ),
        health=TailTolerancePlane(
            TailToleranceConfig(
                health=HealthConfig(window=8, min_window=2),
                hedge=HedgeConfig(
                    quantile=0.9, multiplier=1.5, min_observations=4,
                    only_suspect=False,
                ),
            )
        ),
    )


def _run(crash: bool) -> Tracer:
    requests = _workload()
    tracer = Tracer()
    plane = DurabilityPlane(
        DurabilityConfig(checkpoint_every=5, crash=CRASH if crash else None)
    )
    if not crash:
        _cluster(tracer, plane).run(requests, horizon=HORIZON)
        return tracer
    with pytest.raises(SchedulerCrashed):
        _cluster(tracer, plane).run(requests, horizon=HORIZON)
    # Fresh simulator and engines, the same tracer and plane: what a
    # restarted process holding the journal would build.
    _cluster(tracer, plane).run(requests, horizon=HORIZON, resume=plane.restore())
    return tracer


def _sha(value) -> str:
    blob = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _chrome(tracer: Tracer) -> str:
    doc = chrome_trace(tracer)
    for ev in doc["traceEvents"]:
        if ev["cat"] == "scheduler":
            ev["dur"] = ev["args"]["runtime"] = 0.0
    # Built by iterating a frozenset of str enums: hash-seed order.
    doc["otherData"]["outcomes"] = dict(sorted(doc["otherData"]["outcomes"].items()))
    # Everywhere else key order is part of "byte-equal": no sort_keys.
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _row(crash: bool) -> dict:
    tracer = _run(crash)
    spans = tracer.spans()
    return {
        "trace_digest": _sha(trace_digest(tracer)),
        "spans": _sha([dataclasses.astuple(s) for s in spans]),
        "num_spans": len(spans),
        "outcome_counts": tracer.outcome_counts(),
        "duplicate_terminals": tracer.duplicate_terminals,
        "chrome": _chrome(tracer),
        "lanes": {
            lane: len(getattr(tracer, lane))
            for lane in (
                "batches", "decisions", "overload_events", "durability_events",
                "health_events", "tenant_events",
            )
        },
    }


ROWS = {"uninterrupted": False, "crash-and-restore": True}
GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_trace_matches_parent_commit(name):
    assert _row(ROWS[name]) == GOLDEN[name]


def test_runs_are_strong():
    """Every lane carries events, retries happen, and the restored run
    differs from the uninterrupted one only in its durability lane."""
    plain, restored = GOLDEN["uninterrupted"], GOLDEN["crash-and-restore"]
    for row in (plain, restored):
        assert all(n > 0 for n in row["lanes"].values()), row["lanes"]
        assert all(n > 0 for n in row["outcome_counts"].values())
    assert restored["spans"] == plain["spans"]
    assert restored["lanes"]["durability_events"] > plain["lanes"]["durability_events"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_trace_golden.py --write")
    FIXTURE.write_text(
        json.dumps({name: _row(crash) for name, crash in ROWS.items()}, indent=1,
                   sort_keys=True)
        + "\n"
    )
    print(f"wrote {len(ROWS)} rows to {FIXTURE}")
