"""Extension bench: what a recording tracer costs.

The repro.obs recorder is wired into every serving loop behind an
``if tr.enabled:`` guard.  ``trace=None`` (which ``Lifecycle`` maps to
the no-op recorder) and ``Tracer(enabled=False)`` skip the same guards,
so there is no disabled path to price against the baseline — only the
recording one.  Its wall-time ratio is reported here, min-of-repeats to
shed scheduler noise, and not bounded: tracing is opt-in.  The ratio of
record is ``obs.enabled_cost_ratio`` in ``bench/``
(``python3 bench/run.py --workload sim_planes``).
"""

from __future__ import annotations

import time

from repro.config import BatchConfig
from repro.engine.concat import ConcatEngine
from repro.experiments.serving_sweeps import make_workload
from repro.obs.recorder import Tracer
from repro.scheduling.das import DASScheduler
from repro.serving.simulator import ServingSimulator

BATCH = BatchConfig(num_rows=16, row_length=100)
REPEATS = 7


def _run_once(trace) -> float:
    wl = make_workload(150.0, horizon=6.0, seed=0)
    sim = ServingSimulator(
        DASScheduler(BATCH), ConcatEngine(BATCH), trace=trace
    )
    t0 = time.perf_counter()
    sim.run(wl)
    return time.perf_counter() - t0


def _best(trace_factory) -> float:
    # Min-of-repeats: the best observation is the least noise-polluted
    # estimate of the loop's intrinsic cost.
    return min(_run_once(trace_factory()) for _ in range(REPEATS))


def test_ext_obs_overhead(benchmark, save_table):
    def measure():
        baseline = _best(lambda: None)
        enabled = _best(lambda: Tracer())
        return {
            "config": ["baseline", "enabled"],
            "wall_s": [baseline, enabled],
            "ratio": [1.0, enabled / baseline],
        }

    out = benchmark.pedantic(measure, rounds=1, iterations=1)
    from repro.experiments.tables import format_series_table

    save_table(
        "ext_obs_overhead",
        format_series_table(out, "Extension — tracing cost when enabled"),
    )
