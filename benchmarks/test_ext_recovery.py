"""Extension bench: durability plane — restart cost and journaling cost.

Two properties of the crash-consistent serving plane (docs/recovery.md):

1. **Checkpoint-interval sweep** — `recovery_point` kills the scheduler
   mid-run, restores from the journal and finishes.  Sparser snapshots
   mean fewer checkpoint captures but a longer committed-record replay
   at restore; the terminal ledger must be bit-identical to the
   uninterrupted run's (`match == 1.0`) at *every* interval — restart
   cost is tunable, correctness is not.
2. **Journaling cost** — wall time of a run with an armed plane
   (``checkpoint_every=5``) over the same loop without one,
   min-of-repeats.  Reported, not bounded — durability is opt-in; the
   ratios of record are ``durability.k{0,1,5}_cost_ratio`` in ``bench/``
   (``python3 bench/run.py --workload sim_planes``).
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


def test_ext_recovery_checkpoint_sweep(benchmark, save_table):
    def measure():
        return run_recovery(intervals=(1, 2, 5, 10, 0), seeds=(0, 1))

    out = benchmark.pedantic(measure, rounds=1, iterations=1)

    assert all(m == 1.0 for m in out["match"]), (
        "crash/restore ledger diverged from the uninterrupted run: "
        f"match={out['match']}"
    )
    # Sparser checkpoints -> monotonically fewer snapshots; the
    # genesis-only journal (interval 0) replays at least as much as the
    # snapshot-every-step one.
    snaps = out["snapshots"]
    assert all(a >= b for a, b in zip(snaps, snaps[1:])), snaps
    assert out["replayed"][-1] >= out["replayed"][0], out["replayed"]

    from repro.experiments.tables import format_series_table

    save_table(
        "ext_recovery",
        format_series_table(
            out, "Extension — restart cost vs checkpoint interval"
        ),
    )


def _run_once(**kwargs) -> float:
    wl = make_workload(300.0, horizon=10.0, seed=0)
    sim = ServingSimulator(DASScheduler(BATCH), ConcatEngine(BATCH), **kwargs)
    t0 = time.perf_counter()
    sim.run(wl)
    return time.perf_counter() - t0


def _best_interleaved(*factories) -> list[float]:
    # Min-of-repeats, one observation of each config per round: the
    # best observation is the least noise-polluted estimate of the
    # loop's intrinsic cost, and interleaving cancels slow drift
    # (thermal / frequency scaling) that back-to-back blocks pick up.
    best = [float("inf")] * len(factories)
    for _ in range(REPEATS):
        for i, factory in enumerate(factories):
            best[i] = min(best[i], _run_once(**factory()))
    return best


def test_ext_recovery_enabled_cost(benchmark, save_table):
    def measure():
        baseline, enabled = _best_interleaved(
            dict,
            lambda: {
                "durability": DurabilityPlane(
                    DurabilityConfig(checkpoint_every=5)
                )
            },
        )
        return {
            "config": ["baseline", "enabled"],
            "wall_s": [baseline, enabled],
            "ratio": [1.0, enabled / baseline],
        }

    out = benchmark.pedantic(measure, rounds=1, iterations=1)
    from repro.experiments.tables import format_series_table

    save_table(
        "ext_recovery_overhead",
        format_series_table(
            out, "Extension — durability cost when enabled (k=5)"
        ),
    )
