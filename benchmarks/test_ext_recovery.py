"""Extension bench: durability plane — restart cost and checkpoint cost.

Two properties of the crash-consistent serving plane (docs/recovery.md):

1. **Checkpoint-interval sweep** — `recovery_point` kills the scheduler
   mid-run, restores the latest snapshot and finishes.  Sparser
   snapshots mean more steps re-executed after a restore; the terminal
   ledger must be bit-identical to the uninterrupted run's
   (`match == 1.0`) at *every* interval — restart cost is tunable,
   correctness is not.
2. **Checkpoint cost** — wall time of a run with an armed plane
   (``checkpoint_every`` 5 and 1) over the same loop without one,
   min-of-repeats, on a 10 s trace and on a 40 s trace at the same
   rate.  A checkpoint costs what is live, not the run so far, so the
   ratio must not grow with the trace or with the checkpoint rate.
   When checkpoints deep-copied the state it did both — 1.6x at k=5 on
   10 s became 4.1x on 40 s, and k=1 went from 5.1x to 15.8x;
   ``docs/performance.md`` keeps that table next to this one.
   Reported, not bounded — durability is opt-in; the ratios of record
   are ``durability.k{0,1,5}_cost_ratio`` in ``bench/`` (``python3
   bench/run.py --workload sim_planes``).
"""

from __future__ import annotations

import time

from repro.config import BatchConfig
from repro.durability import DurabilityConfig, DurabilityPlane
from repro.engine.concat import ConcatEngine
from repro.experiments.recovery import run_recovery
from repro.experiments.serving_sweeps import make_workload
from repro.scheduling.das import DASScheduler
from repro.serving.simulator import ServingSimulator

BATCH = BatchConfig(num_rows=16, row_length=100)
REPEATS = 7
# Same rate, 4x the trace: a per-checkpoint cost that grows with the run
# shows as a ratio that grows with the trace.
HORIZONS = (10.0, 40.0)


def test_ext_recovery_checkpoint_sweep(benchmark, save_table):
    def measure():
        return run_recovery(intervals=(1, 2, 5, 10, 0), seeds=(0, 1))

    out = benchmark.pedantic(measure, rounds=1, iterations=1)

    assert all(m == 1.0 for m in out["match"]), (
        "crash/restore ledger diverged from the uninterrupted run: "
        f"match={out['match']}"
    )
    # Sparser checkpoints -> monotonically fewer snapshots; the
    # genesis-only journal (interval 0) re-runs at least as many steps
    # as the snapshot-every-step one.
    snaps = out["snapshots"]
    assert all(a >= b for a, b in zip(snaps, snaps[1:])), snaps
    assert out["rerun"][-1] >= out["rerun"][0], out["rerun"]

    from repro.experiments.tables import format_series_table

    save_table(
        "ext_recovery",
        format_series_table(
            out, "Extension — restart cost vs checkpoint interval"
        ),
    )


def _run_once(horizon: float, **kwargs) -> float:
    wl = make_workload(300.0, horizon=horizon, seed=0)
    sim = ServingSimulator(DASScheduler(BATCH), ConcatEngine(BATCH), **kwargs)
    t0 = time.perf_counter()
    sim.run(wl)
    return time.perf_counter() - t0


def _best_interleaved(horizon: float, *factories) -> list[float]:
    # Min-of-repeats, one observation of each config per round: the
    # best observation is the least noise-polluted estimate of the
    # loop's intrinsic cost, and interleaving cancels slow drift
    # (thermal / frequency scaling) that back-to-back blocks pick up.
    best = [float("inf")] * len(factories)
    for _ in range(REPEATS):
        for i, factory in enumerate(factories):
            best[i] = min(best[i], _run_once(horizon, **factory()))
    return best


def _armed(checkpoint_every: int):
    return lambda: {
        "durability": DurabilityPlane(
            DurabilityConfig(checkpoint_every=checkpoint_every)
        )
    }


def test_ext_recovery_enabled_cost(benchmark, save_table):
    def measure():
        out = {"trace_s": [], "config": [], "wall_s": [], "ratio": []}
        for horizon in HORIZONS:
            walls = _best_interleaved(horizon, dict, _armed(5), _armed(1))
            for config, wall in zip(("baseline", "k=5", "k=1"), walls):
                out["trace_s"].append(horizon)
                out["config"].append(config)
                out["wall_s"].append(wall)
                out["ratio"].append(wall / walls[0])
        return out

    out = benchmark.pedantic(measure, rounds=1, iterations=1)
    from repro.experiments.tables import format_series_table

    save_table(
        "ext_recovery_overhead",
        format_series_table(
            out,
            "Extension — durability cost when enabled "
            "(300 req/s; k = checkpoint_every)",
        ),
    )
