"""Cross-commit golden: the serving loops' ledgers and traces, pinned.

``tests/fixtures/lifecycle_golden.json`` was generated at the commit
*before* ``serving/lifecycle.py`` existed (``python
tests/test_lifecycle_golden.py --write``), when every loop still fanned
each request transition out to the planes by hand.  This test recomputes
the same 56 rows — 3 loops × planes {off, tracer, all} × faults {none,
no-crash, crashes} × 2 seeds, plus the autoscale loop × 2 seeds — and
requires the sha256 of ``ledger_digest`` and ``trace_digest`` to be
bit-identical, so a refactor of the lifecycle cannot move a single
request between ledgers or reorder a single span.

The continuous rows run ``admission="utility"``.  The 18
``continuous-fcfs`` rows (the same matrix with FCFS admission) were
added later, written at the commit before the iteration-level loop's
admission moved onto columns, so both admission orders are pinned.

The workload is sized so every transition runs: lengths reach 1.4·L
(unservable drop), a quota-limited tenant (quota reject), a bounded
queue under 150 req/s (shed, degradation reject), failing/crashing
engines (requeue, abandon) and hedging on the cluster.
``test_matrix_is_strong`` keeps it that way.
"""

from __future__ import annotations

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
from repro.durability import (
    DurabilityConfig,
    DurabilityPlane,
    ledger_digest,
    trace_digest,
)
from repro.engine.concat import ConcatEngine
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
from repro.serving.admission import AdmissionController
from repro.serving.autoscale import AutoscalingSimulator
from repro.serving.cluster import ClusterSimulator
from repro.serving.continuous import ContinuousBatchingSimulator
from repro.serving.simulator import ServingSimulator
from repro.tenancy import TenancyPlane, TenantClass, TenantRegistry
from repro.workload.deadlines import DeadlineModel
from repro.workload.generator import LengthDistribution, WorkloadGenerator

FIXTURE = Path(__file__).parent / "fixtures" / "lifecycle_golden.json"

BATCH = BatchConfig(num_rows=16, row_length=100)
# Arrivals stop at 8 s; the loops run on to 12 s so the queue drains down
# to the requests no row can hold and the unservable drop runs.
RATE, ARRIVALS, HORIZON = 150.0, 8.0, 12.0
MAX_LENGTH = int(1.4 * BATCH.row_length)
SEEDS = (0, 1)
LOOPS = ("simulator", "cluster", "continuous")
PLANES = ("off", "tracer", "all")
FAULTS = {
    "none": None,
    "no-crash": FaultConfig(failure_rate=0.05, straggler_rate=0.1, oom_rate=0.05),
    "crashes": FaultConfig(
        failure_rate=0.05, straggler_rate=0.1, oom_rate=0.05,
        crash_rate=0.15, downtime=0.4,
    ),
}
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


def _workload(seed: int):
    return WorkloadGenerator(
        rate=RATE,
        # Mean 30, σ 35, clipped to 1.4·L: ~2% of requests can never fit
        # a row, so the unservable-drop path runs.
        lengths=LengthDistribution(
            family="normal", mean=30.0, spread=35.0, low=3,
            high=MAX_LENGTH,
        ),
        deadlines=DeadlineModel(base_slack=4.0, jitter=0.5),
        horizon=ARRIVALS,
        seed=seed,
        tenant_mix=(("premium", 0.2), ("standard", 0.5), ("batch", 0.3)),
        registry=REGISTRY,
    ).generate()


def _plan(faults: str, seed: int, engine: int = 0):
    # Plan seeds 0-2 and 10-12: each draws crashes within its first slots.
    cfg = FAULTS[faults]
    return None if cfg is None else FaultPlan(cfg, seed=seed * 10 + engine)


def _engine(faults: str, seed: int, index: int = 0):
    plan = _plan(faults, seed, index)
    engine = ConcatEngine(BATCH)
    return engine if plan is None else FaultyEngine(engine, plan)


def _planes(planes: str) -> dict:
    if planes == "off":
        return {}
    if planes == "tracer":
        return {"trace": Tracer()}
    return {
        "trace": Tracer(),
        "overload": OverloadController(
            OverloadConfig(
                limits=QueueLimits(max_tokens=2 * BATCH.capacity_tokens),
                shedding=make_shedder("latest-deadline", seed=0),
                breaker=BreakerConfig(),
                degradation=DegradationConfig(
                    shed_min_slack=0.2, brownout_min_slack=0.5
                ),
            )
        ),
        "durability": DurabilityPlane(DurabilityConfig(checkpoint_every=5)),
        "tenancy": TenancyPlane(REGISTRY, seed=0),
    }


def _run(loop: str, planes: str, faults: str, seed: int):
    """One row: returns ``(metrics, tracer or None, tenancy or None)``."""
    requests = _workload(seed)
    kw = _planes(planes)
    if loop == "autoscale":
        sim = AutoscalingSimulator(
            DASScheduler(BATCH), lambda: ConcatEngine(BATCH),
            max_engines=4, high_watermark=1500.0, low_watermark=100.0,
        )
        return sim.run(requests, horizon=HORIZON), None, None
    if loop.startswith("continuous"):
        admission = "fcfs" if loop == "continuous-fcfs" else "utility"
        sim = ContinuousBatchingSimulator(
            BATCH, admission=admission, seed=seed,
            fault_plan=_plan(faults, seed), **kw,
        )
        metrics = sim.run(requests, horizon=HORIZON)
        return metrics, kw.get("trace"), kw.get("tenancy")
    if planes == "all":
        # Sized to the longest request, not to L: over-long requests pass
        # admission and must leave through the unservable drop (+ release).
        kw["admission"] = AdmissionController(
            BatchConfig(BATCH.num_rows, MAX_LENGTH),
            max_queued_tokens=3 * BATCH.capacity_tokens,
        )
    if loop == "simulator":
        sim = ServingSimulator(DASScheduler(BATCH), _engine(faults, seed), **kw)
    else:
        if planes == "all":
            kw["health"] = TailTolerancePlane(
                TailToleranceConfig(
                    health=HealthConfig(window=8, min_window=2),
                    hedge=HedgeConfig(
                        quantile=0.9, multiplier=1.5, min_observations=4,
                        only_suspect=False,
                    ),
                )
            )
        sim = ClusterSimulator(
            DASScheduler(BATCH),
            [_engine(faults, seed, i) for i in range(3)],
            **kw,
        )
    metrics = sim.run(requests, horizon=HORIZON).metrics
    return metrics, kw.get("trace"), kw.get("tenancy")


def _sha(digest) -> str | None:
    if digest is None:
        return None
    blob = json.dumps(digest, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _row(loop: str, planes: str, faults: str, seed: int) -> dict:
    metrics, tracer, tenancy = _run(loop, planes, faults, seed)
    quota = (
        sum(led.quota_rejected for led in tenancy.book.ledgers.values())
        if tenancy is not None
        else 0
    )
    return {
        "ledger_sha256": _sha(ledger_digest(metrics)),
        "trace_sha256": _sha(trace_digest(tracer)),
        "served": metrics.num_served,
        "expired": metrics.num_expired,
        "rejected": metrics.num_rejected,
        "abandoned": metrics.num_abandoned,
        "shed": metrics.shed,
        "quota_rejected": quota,
        "retries": metrics.retries,
        "hedges": metrics.hedges,
    }


def _keys() -> list[tuple[str, str, str, int]]:
    keys = [
        (loop, planes, faults, seed)
        for loop in LOOPS
        for planes in PLANES
        for faults in FAULTS
        for seed in SEEDS
    ]
    keys += [("autoscale", "off", "none", seed) for seed in SEEDS]
    keys += [
        ("continuous-fcfs", planes, faults, seed)
        for planes in PLANES
        for faults in FAULTS
        for seed in SEEDS
    ]
    return keys


def _name(key) -> str:
    return "/".join(str(part) for part in key)


GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


@pytest.mark.parametrize("key", _keys(), ids=_name)
def test_row_matches_parent_commit(key):
    assert _row(*key) == GOLDEN[_name(key)]


def test_matrix_is_strong():
    """Every transition the lifecycle has must be exercised by some row."""
    assert len(GOLDEN) == len(_keys()) == 74
    for counter in ("abandoned", "shed", "quota_rejected", "retries", "hedges"):
        assert any(row[counter] > 0 for row in GOLDEN.values()), counter


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_lifecycle_golden.py --write")
    FIXTURE.write_text(
        json.dumps({_name(k): _row(*k) for k in _keys()}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {len(_keys())} rows to {FIXTURE}")
