"""Chaos sweep: serving quality vs injected fault rate.

Not a paper figure — the paper assumes a healthy engine — but the
natural robustness question for its system: how does deadline-aware
serving degrade when slots fail, straggle, OOM or crash?  The sweep
drives the single-engine serving loop through a
:class:`~repro.faults.plan.FaultPlan` at increasing chaos rates and
reports seed-averaged utility plus the fault-accounting counters, for
DAS and FCFS side by side.

Every run is replayable: fault plans are seeded per (rate, seed) cell,
and the conservation invariant is asserted inside the serving loop, so
a run that loses requests fails loudly instead of skewing a curve.
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
from repro.serving.metrics import ServingMetrics
from repro.serving.simulator import ServingSimulator

__all__ = ["FAULT_RATES", "fault_point", "run_fault_tolerance"]

# Chaos knob: total per-slot fault probability (0 = healthy baseline).
FAULT_RATES = (0.0, 0.05, 0.15, 0.3)


def fault_point(
    policy: str,
    fault_rate: float,
    *,
    rate: float = 150.0,
    batch: Optional[BatchConfig] = None,
    horizon: float = 8.0,
    seed: int = 0,
    downtime: float = 0.3,
    cost_model: Optional[GPUCostModel] = None,
) -> ServingMetrics:
    """One (policy, fault_rate, seed) serving run under chaos."""
    if batch is None:
        batch = BatchConfig(num_rows=16, row_length=100)
    engine = ConcatEngine(batch, cost_model=cost_model or GPUCostModel.calibrated())
    plan = FaultPlan(
        FaultConfig.chaos(fault_rate, downtime=downtime), seed=1000 + seed
    )
    sim = ServingSimulator(
        make_scheduler(policy, batch), FaultyEngine(engine, plan)
    )
    return sim.run(make_workload(rate, horizon=horizon, seed=seed)).metrics


def run_fault_tolerance(
    fault_rates: Sequence[float] = FAULT_RATES,
    *,
    rate: float = 150.0,
    horizon: float = 8.0,
    seeds: Sequence[int] = (0, 1, 2),
) -> dict[str, list[float]]:
    """Chaos sweep over ``fault_rates`` for DAS and FCFS.

    Utility/served are seed means; the fault counters (retries, failed
    batches, abandoned, downtime) are seed means as well, so columns
    stay comparable when the seed set changes.
    """
    out: dict[str, list[float]] = {"fault_rate": list(fault_rates)}
    columns = {
        "utility": attrgetter("total_utility"),
        "served": attrgetter("num_served"),
        "abandoned": attrgetter("num_abandoned"),
        "retries": attrgetter("retries"),
        "failed": attrgetter("failed_batches"),
        "downtime": attrgetter("downtime"),
    }
    for policy in ("das", "fcfs"):
        cols = seed_means(
            fault_rates,
            seeds,
            lambda fr, seed: fault_point(
                policy, fr, rate=rate, horizon=horizon, seed=seed
            ),
            columns,
        )
        for k, series in cols.items():
            out[f"{policy.upper()}_{k}"] = series
    return out
