"""Tail-tolerance sweep + smoke: hedged dispatch vs a straggling replica.

Not a paper figure — the paper's engines never misbehave — but the
tail-tolerance plane (``docs/tail_tolerance.md``) makes a quantitative
claim worth measuring: against a straggler-heavy replica, hedged
dispatch should cut the cluster's p99 batch latency by a large constant
factor at equal offered load, while the exactly-once ledger stays
conservation-exact (hedging must never create or lose a request).

``tail_smoke`` is the CI-scale check (``make tail-smoke``): a straggler
chaos sweep over a seed matrix asserting the hedged p99 beats the
no-hedging baseline by at least a fixed margin, writing the sweep as a
JSON artifact either way so CI can upload it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional, Sequence

from repro.cluster_health import (
    HealthConfig,
    HedgeConfig,
    TailToleranceConfig,
    TailTolerancePlane,
)
from repro.config import BatchConfig
from repro.engine.concat import ConcatEngine
from repro.experiments.serving_sweeps import make_scheduler, make_workload
from repro.experiments.tables import seed_means
from repro.faults import FaultConfig, FaultPlan, FaultyEngine
from repro.obs.recorder import Tracer
from repro.serving.cluster import ClusterSimulator
from repro.types import Request

__all__ = ["run_tail", "tail_point", "tail_smoke"]

_BATCH = BatchConfig(num_rows=4, row_length=20)

# The smoke's acceptance margin: hedged p99 must undercut the
# no-hedging baseline by at least this fraction.
SMOKE_MARGIN = 0.25


def _requests(seed: int, *, rate: float, horizon: float) -> list[Request]:
    return make_workload(rate, horizon=horizon, seed=seed).generate()


def _engines(seed: int, *, multiplier: tuple[float, float], n: int = 3):
    """``n`` engines sharing the queue; engine 0 is the gray-failing
    replica (stragglers, no outright failures), the rest run clean."""
    out = []
    for i in range(n):
        cfg = (
            FaultConfig(straggler_rate=0.9, straggler_multiplier=multiplier)
            if i == 0
            else FaultConfig()
        )
        out.append(
            FaultyEngine(ConcatEngine(_BATCH), FaultPlan(cfg, seed=seed * 10 + i))
        )
    return out


def _plane(*, hedge: bool) -> TailTolerancePlane:
    """Detection + placement always on; ``hedge`` isolates the hedged
    dispatch so the sweep measures its marginal effect."""
    return TailTolerancePlane(
        TailToleranceConfig(
            health=HealthConfig(window=8, min_window=2),
            hedge=(
                HedgeConfig(
                    quantile=0.9,
                    multiplier=1.5,
                    min_observations=4,
                    only_suspect=False,
                )
                if hedge
                else None
            ),
        )
    )


def _p99(tr: Tracer) -> float:
    durs = sorted(b.duration for b in tr.batches if b.kind == "batch")
    if not durs:
        return 0.0
    rank = max(1, math.ceil(0.99 * len(durs)))
    return durs[rank - 1]


def tail_point(
    seed: int,
    *,
    rate: float = 40.0,
    horizon: float = 30.0,
    multiplier: tuple[float, float] = (4.0, 8.0),
) -> dict:
    """One hedging-on/off differential cell at equal load.

    Both runs share the workload and the straggler plan; the baseline
    keeps gray-failure detection and health-scored placement so the
    reported improvement isolates hedged dispatch itself.
    """
    requests = _requests(seed, rate=rate, horizon=horizon)
    cell: dict = {"seed": seed, "rate": rate, "multiplier": list(multiplier)}
    for label, hedge in (("baseline", False), ("hedged", True)):
        tr = Tracer()
        sim = ClusterSimulator(
            make_scheduler("das", _BATCH),
            _engines(seed, multiplier=multiplier),
            trace=tr,
            health=_plane(hedge=hedge),
        )
        m = sim.run(requests, horizon=horizon).metrics
        # Hedging must never bend the ledger: conservation and the
        # span-vs-metrics reconcile are part of every cell.
        m.assert_conservation()
        tr.reconcile(m)
        cell[label] = {
            "p99": _p99(tr),
            "served": len(m.served),
            "hedges": m.hedges,
            "hedge_wins": m.hedge_wins,
            "hedge_wasted": m.hedge_wasted,
        }
    base, hedged = cell["baseline"]["p99"], cell["hedged"]["p99"]
    cell["improvement"] = 0.0 if base <= 0 else 1.0 - hedged / base
    return cell


def run_tail(
    multipliers: Sequence[tuple[float, float]] = (
        (2.0, 4.0),
        (4.0, 8.0),
        (8.0, 16.0),
    ),
    *,
    rate: float = 40.0,
    horizon: float = 30.0,
    seeds: Sequence[int] = (0, 1),
) -> dict[str, list[float]]:
    """Straggler-severity sweep (``python -m repro ablation tail``).

    Seed-averaged per multiplier range: baseline vs hedged p99 batch
    latency, the relative improvement, and how many hedges fired/won.
    """
    out: dict[str, list[float]] = {
        "straggler_multiplier_lo": [m[0] for m in multipliers]
    }
    out.update(
        seed_means(
            multipliers,
            seeds,
            lambda mult, seed: tail_point(
                seed, rate=rate, horizon=horizon, multiplier=mult
            ),
            {
                "p99_baseline": lambda cell: cell["baseline"]["p99"],
                "p99_hedged": lambda cell: cell["hedged"]["p99"],
                "improvement": lambda cell: cell["improvement"],
                "hedges": lambda cell: cell["hedged"]["hedges"],
                "hedge_wins": lambda cell: cell["hedged"]["hedge_wins"],
            },
        )
    )
    return out


def tail_smoke(
    *,
    seeds: Sequence[int] = (0, 1, 2),
    rate: float = 40.0,
    horizon: float = 30.0,
    multiplier: tuple[float, float] = (4.0, 8.0),
    margin: float = SMOKE_MARGIN,
    artifact_dir: str = "benchmarks/results/tail_smoke",
    artifact: Optional[str] = "sweep.json",
) -> None:
    """CI chaos smoke: hedging must beat no-hedging p99 by ``margin``.

    Prints one line per seed, writes the full sweep JSON into
    *artifact_dir* (always — the artifact is the record, not just the
    failure dump), and raises ``SystemExit(1)`` if any seed's
    improvement falls below the margin or an invariant check fails.
    """
    cells = []
    failures = []
    for seed in seeds:
        cell = tail_point(
            seed, rate=rate, horizon=horizon, multiplier=multiplier
        )
        cells.append(cell)
        ok = cell["improvement"] >= margin
        print(
            f"tail smoke: seed={seed} "
            f"p99 {cell['baseline']['p99']:.3f} -> {cell['hedged']['p99']:.3f} "
            f"({cell['improvement']:.0%} better, margin {margin:.0%}) "
            f"hedges={cell['hedged']['hedges']} "
            f"wins={cell['hedged']['hedge_wins']} "
            f"{'OK' if ok else 'BELOW MARGIN'}"
        )
        if not ok:
            failures.append(seed)
    if artifact is not None:
        art = Path(artifact_dir)
        art.mkdir(parents=True, exist_ok=True)
        (art / artifact).write_text(
            json.dumps(
                {
                    "margin": margin,
                    "rate": rate,
                    "horizon": horizon,
                    "multiplier": list(multiplier),
                    "cells": cells,
                    "failures": failures,
                },
                indent=2,
            )
        )
    if failures:
        raise SystemExit(
            f"tail smoke: seed(s) {failures} below the {margin:.0%} "
            f"p99-improvement margin; sweep written to {artifact_dir}/"
        )
    print(
        f"tail smoke: {len(seeds)} seeds, hedged dispatch beat the "
        f"no-hedging baseline by >= {margin:.0%} p99 in every cell"
    )
