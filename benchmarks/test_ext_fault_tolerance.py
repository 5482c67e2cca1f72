"""Extension bench: chaos sweep — serving quality vs injected fault rate.

The paper assumes a healthy engine; this bench probes its system's
robustness.  A seeded :class:`~repro.faults.plan.FaultPlan` injects
batch failures, stragglers, transient OOMs and engine crashes at
increasing total rates, and the serving loop answers with split-batch
retry, bounded deadline-aware requeue and crash recovery.  Checked:

- at fault rate 0 the wrapped engine is a bit-identical passthrough
  (same metrics as the fault-free simulator),
- faults never help and never cliff: every faulted rate's utility is at
  most the healthy baseline's, the heaviest chaos ends below the
  lightest, and it keeps more than a quarter of the baseline — for both
  DAS and FCFS,
- DAS keeps its utility lead over FCFS at every fault rate (deadline
  awareness matters *more* when retries eat slack),
- identical seeds replay identical fault sequences and metrics,
- the conservation invariant holds on every run (asserted inside the
  serving loop itself).

Adjacent rates are *not* compared.  ``FaultPlan`` draws one uniform per
slot and cuts it at the config's cumulative rates, so the plans of two
rates share the draws but not the kinds: a slot that straggles (2-6x
latency) at rate 0.05 is a plain failure at 0.15.  An 8 s run has ~10
slots, so which few slots land on which kind decides the curve and
0.15 -> 0.30 read 107.6 -> 122.8 on two seeds.  The sweep therefore
runs 30 s x 3 seeds (~115 slots per cell) and checks the claims above:
at that length "at most the baseline" and "DAS beats FCFS" hold on each
seed 0-5 alone, and "heaviest below lightest" by 7% (DAS) and 25%
(FCFS) in their mean.
"""

from repro.config import BatchConfig
from repro.engine.concat import ConcatEngine
from repro.experiments.fault_tolerance import (
    FAULT_RATES,
    fault_point,
    run_fault_tolerance,
)
from repro.experiments.serving_sweeps import make_scheduler, make_workload
from repro.experiments.tables import format_series_table
from repro.faults import FaultConfig, FaultPlan
from repro.serving.simulator import ServingSimulator

SEEDS = (0, 1, 2)
HORIZON = 30.0


def _series():
    return run_fault_tolerance(horizon=HORIZON, seeds=SEEDS)


def _summary_without_wallclock(metrics):
    s = metrics.summary()
    s.pop("sched_overhead")  # wall-clock scheduler time, run-dependent
    return s


def test_ext_fault_tolerance(benchmark, save_table):
    out = benchmark.pedantic(_series, rounds=1, iterations=1)
    save_table(
        "ext_fault_tolerance",
        format_series_table(out, "Extension — serving under injected faults"),
    )
    # Healthy baseline: no fault ever fires, all fault counters are zero.
    for policy in ("DAS", "FCFS"):
        for counter in ("abandoned", "retries", "failed", "downtime"):
            assert out[f"{policy}_{counter}"][0] == 0.0
    # Graceful degradation: no faulted rate beats the healthy baseline,
    # the heaviest chaos is worse than the lightest, and utility never
    # collapses outright.
    for policy in ("DAS", "FCFS"):
        u = out[f"{policy}_utility"]
        assert all(faulted <= u[0] for faulted in u[1:])
        assert u[-1] < u[1]
        assert u[-1] > 0.25 * u[0]
    # Deadline awareness survives chaos: DAS beats FCFS at every rate.
    for i in range(len(FAULT_RATES)):
        assert out["DAS_utility"][i] > out["FCFS_utility"][i]
    # Faults actually bit at the higher rates.
    assert out["DAS_retries"][-1] > 0
    assert out["DAS_abandoned"][-1] > 0


def test_rate_zero_matches_fault_free_simulator():
    batch = BatchConfig(num_rows=16, row_length=100)
    wl = make_workload(150.0, horizon=8.0, seed=0)
    plain = ServingSimulator(
        make_scheduler("das", batch), ConcatEngine(batch)
    ).run(wl).metrics
    chaos_zero = fault_point("das", 0.0, seed=0)
    assert _summary_without_wallclock(chaos_zero) == _summary_without_wallclock(plain)
    assert chaos_zero.finish_times == plain.finish_times


def test_identical_seeds_replay_identical_chaos():
    a = fault_point("das", 0.3, seed=0)
    b = fault_point("das", 0.3, seed=0)
    assert _summary_without_wallclock(a) == _summary_without_wallclock(b)
    assert a.finish_times == b.finish_times
    # And the underlying plan replays event-for-event.
    cfg = FaultConfig.chaos(0.3)
    assert FaultPlan(cfg, seed=1000).events(64) == FaultPlan(cfg, seed=1000).events(64)
