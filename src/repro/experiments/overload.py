"""Overload sweep: goodput vs offered load, with and without shedding.

Not a paper figure — the paper's sweeps stop where the system saturates
— but the natural robustness question past that point: what happens at
2–4× capacity?  Without overload management a FIFO policy exhibits
classic *goodput collapse*: the queue grows without bound, every
request waits longer than its slack, and the engine spends its time
completing requests whose deadlines already passed.  With the overload
plane (``repro.overload``: bounded queue + load shedding + hysteresis
degradation) goodput plateaus near its peak instead.

The sweep drives the single-engine serving loop at multiples of its
measured capacity (≈150 req/s for the default 16×100 batch under the
§6.2.1 workload) and reports *on-time* goodput — utility summed over
responses that finished by their deadline — which is exactly the
quantity collapse destroys.  An optional chaos rate injects the PR 2
fault plane on top, with the circuit breaker quarantining the engine
between failure bursts; conservation and trace reconciliation are
asserted inside every run.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional, Sequence

from repro.config import BatchConfig
from repro.engine.concat import ConcatEngine
from repro.engine.cost_model import GPUCostModel
from repro.experiments.serving_sweeps import make_scheduler, make_workload
from repro.experiments.tables import seed_means
from repro.faults import FaultConfig, FaultPlan, FaultyEngine
from repro.overload import (
    BreakerConfig,
    DegradationConfig,
    OverloadConfig,
    OverloadController,
    QueueLimits,
    make_shedder,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.simulator import ServingSimulator

__all__ = [
    "OVERLOAD_RATES",
    "default_overload_config",
    "overload_point",
    "run_overload",
]

# Offered load in req/s: ~0.5×, 1×, 2×, 3×, 4× of single-engine
# capacity for the default 16×100 batch under the §6.2.1 workload.
OVERLOAD_RATES = (75.0, 150.0, 300.0, 450.0, 600.0)


def default_overload_config(
    batch: BatchConfig,
    *,
    policy: str = "latest-deadline",
    seed: int = 0,
    breaker: bool = False,
) -> OverloadConfig:
    """The sweep's overload plane: bounded queue + shedding + hysteresis.

    The token limit is twice one batch's capacity — enough buffered work
    to never starve the engine, small enough that whatever queues still
    meets its deadline.  Degradation tightens admission once the queue
    delay (or the rolling miss rate) says the backlog is unhealthy.
    """
    return OverloadConfig(
        limits=QueueLimits(max_tokens=2 * batch.capacity_tokens),
        shedding=make_shedder(policy, seed=seed),
        breaker=BreakerConfig() if breaker else None,
        degradation=DegradationConfig(
            shed_min_slack=1.0, brownout_min_slack=2.0
        ),
    )


def overload_point(
    rate: float,
    *,
    shedding: bool,
    policy: str = "fcfs",
    shed_policy: str = "latest-deadline",
    batch: Optional[BatchConfig] = None,
    horizon: float = 10.0,
    seed: int = 0,
    chaos: float = 0.0,
    cost_model: Optional[GPUCostModel] = None,
) -> ServingMetrics:
    """One (rate, shedding?, seed) serving run, optionally under chaos.

    FCFS is the default serving policy because it is the one that
    collapses — DAS already sheds implicitly by never selecting
    infeasible requests, so overload management matters most for the
    schedulers deployments actually run.
    """
    if batch is None:
        batch = BatchConfig(num_rows=16, row_length=100)
    engine = ConcatEngine(
        batch, cost_model=cost_model or GPUCostModel.calibrated()
    )
    if chaos > 0.0:
        plan = FaultPlan(FaultConfig.chaos(chaos), seed=1000 + seed)
        engine = FaultyEngine(engine, plan)
    overload = None
    if shedding:
        overload = OverloadController(
            default_overload_config(
                batch, policy=shed_policy, seed=seed, breaker=chaos > 0.0
            )
        )
    sim = ServingSimulator(
        make_scheduler(policy, batch), engine, overload=overload
    )
    return sim.run(make_workload(rate, horizon=horizon, seed=seed)).metrics


def run_overload(
    rates: Sequence[float] = OVERLOAD_RATES,
    *,
    horizon: float = 10.0,
    seeds: Sequence[int] = (0, 1, 2),
    chaos: float = 0.0,
    shed_policy: str = "latest-deadline",
) -> dict[str, list[float]]:
    """Goodput sweep over offered load, shedding off vs on (seed means)."""
    out: dict[str, list[float]] = {"rate": list(rates)}
    columns = {
        "goodput": attrgetter("goodput_utility"),
        "on_time": attrgetter("num_on_time"),
        "served": attrgetter("num_served"),
        "shed": attrgetter("shed"),
        "expired": attrgetter("num_expired"),
    }
    for label, shedding in (("OFF", False), ("ON", True)):
        cols = seed_means(
            rates,
            seeds,
            lambda rate, seed: overload_point(
                rate,
                shedding=shedding,
                shed_policy=shed_policy,
                horizon=horizon,
                seed=seed,
                chaos=chaos,
            ),
            columns,
        )
        for k, series in cols.items():
            out[f"{label}_{k}"] = series
    return out
