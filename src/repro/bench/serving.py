"""End-to-end serving benchmark: steps/sec per loop, fast vs reference.

Also home of :func:`reference_serving_core`, the switch that swaps the
whole serving core (queue + scheduler fast paths) back to the
``_reference_*`` oracles — used both here (to measure the end-to-end
win) and by the differential equivalence harness
(``tests/test_fastpath_equivalence.py``) to prove the two cores produce
bit-identical ledgers and traces.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from repro.config import BatchConfig
from repro.engine.concat import ConcatEngine
from repro.scheduling.das import DASScheduler
from repro.scheduling.queue import _ReferenceRequestQueue
from repro.serving import lifecycle as _lifecycle_mod
from repro.serving.cluster import ClusterSimulator
from repro.serving.continuous import ContinuousBatchingSimulator
from repro.serving.simulator import ServingSimulator
from repro.workload.deadlines import DeadlineModel
from repro.workload.generator import LengthDistribution, WorkloadGenerator

__all__ = ["bench_serving", "reference_serving_core"]


@contextmanager
def reference_serving_core() -> Iterator[None]:
    """Run serving loops on the pre-ISSUE-8 reference queue.

    Schedulers are constructed by callers, so the reference *scheduler*
    is selected separately via ``DASScheduler(..., reference=True)``;
    this context only swaps the queue class.  ``serving/lifecycle.py`` is
    the one module that constructs the run's queue (by module-local
    name), so the swap covers every loop and ``TCBServer``.
    """
    saved = _lifecycle_mod.RequestQueue
    _lifecycle_mod.RequestQueue = _ReferenceRequestQueue
    try:
        yield
    finally:
        _lifecycle_mod.RequestQueue = saved


def _workload(horizon: float, rate: float, seed: int):
    return WorkloadGenerator(
        rate=rate,
        lengths=LengthDistribution(
            family="normal", mean=8, spread=4, low=3, high=20
        ),
        deadlines=DeadlineModel(base_slack=4.0, jitter=0.5),
        horizon=horizon,
        seed=seed,
    ).generate()


def _run_simulator(batch, requests, horizon, *, reference):
    sim = ServingSimulator(
        DASScheduler(batch, reference=reference), ConcatEngine(batch)
    )
    return sim.run(requests, horizon=horizon).metrics


def _run_cluster(batch, requests, horizon, *, reference):
    sim = ClusterSimulator(
        DASScheduler(batch, reference=reference),
        [ConcatEngine(batch) for _ in range(3)],
    )
    return sim.run(requests, horizon=horizon).metrics


def _run_continuous(batch, requests, horizon, *, reference):
    # The continuous loop has no DAS scheduler; reference mode is the
    # queue swap alone (utility admission exercises the sorted view).
    return ContinuousBatchingSimulator(batch, admission="utility", seed=0).run(
        requests, horizon=horizon
    )


_LOOPS = {
    "simulator": _run_simulator,
    "cluster": _run_cluster,
    "continuous": _run_continuous,
}


def bench_serving(
    *,
    horizon: float = 8.0,
    rate: float = 120.0,
    seed: int = 0,
    repeats: int = 2,
) -> dict:
    """Wall-clock steps/sec per loop, fast core vs reference core.

    A "step" is one terminally-accounted request (served, expired,
    rejected or abandoned — their sum equals arrivals by the
    conservation invariant), so steps/sec is workload processed per
    wall second and is comparable across loops.
    """
    batch = BatchConfig(num_rows=4, row_length=20)
    requests = _workload(horizon, rate, seed)
    out: dict[str, dict] = {}
    for name, runner in _LOOPS.items():
        fast_s = float("inf")
        ref_s = float("inf")
        # Untimed warmup so the first timed run doesn't pay numpy /
        # import / allocator first-touch costs.
        m = runner(batch, requests, horizon, reference=False)
        steps = m.arrived
        for _ in range(repeats):
            t0 = time.perf_counter()
            runner(batch, requests, horizon, reference=False)
            fast_s = min(fast_s, time.perf_counter() - t0)
        with reference_serving_core():
            runner(batch, requests, horizon, reference=True)
            for _ in range(repeats):
                t0 = time.perf_counter()
                runner(batch, requests, horizon, reference=True)
                ref_s = min(ref_s, time.perf_counter() - t0)
        out[name] = {
            "steps": steps,
            "fast_s": fast_s,
            "reference_s": ref_s,
            "steps_per_s": steps / fast_s if fast_s > 0 else float("inf"),
            "speedup": ref_s / fast_s if fast_s > 0 else float("inf"),
        }
    return out
