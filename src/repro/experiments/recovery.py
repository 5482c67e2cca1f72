"""Recovery ablation + smoke: crash/restore cost and correctness.

Not a paper figure — the paper assumes the scheduler never dies — but
the durability plane (``docs/recovery.md``) makes a quantitative claim
worth sweeping: checkpoint interval trades the steps a restored run
re-executes against snapshot cost, while the *result* must not depend
on it at all.  Every cell of the sweep crashes a serving run
mid-flight, restores, finishes, and checks the terminal ledger digest
against the uninterrupted run's — a mismatch is a correctness bug, not
a data point.

``recovery_smoke`` is the same differential at CI scale (``make
recovery-smoke``): all three serving loops over a seed matrix; on a
mismatch it writes the digest diff next to the failure so the broken
restore can be inspected offline.
"""

from __future__ import annotations

import json
from operator import itemgetter
from pathlib import Path
from typing import Optional, Sequence

from repro.config import BatchConfig
from repro.durability import (
    DurabilityConfig,
    DurabilityPlane,
    digest_diff,
    ledger_digest,
    trace_digest,
)
from repro.engine.concat import ConcatEngine
from repro.experiments.serving_sweeps import make_scheduler, make_workload
from repro.experiments.tables import seed_means
from repro.faults import FaultConfig, FaultPlan, FaultyEngine
from repro.faults.plan import SchedulerCrash, SchedulerCrashed
from repro.obs.recorder import Tracer
from repro.serving.cluster import ClusterSimulator
from repro.serving.continuous import ContinuousBatchingSimulator
from repro.serving.simulator import ServingSimulator
from repro.types import Request

__all__ = [
    "CHECKPOINT_INTERVALS",
    "LOOPS",
    "recovery_point",
    "recovery_smoke",
    "run_recovery",
]

# 0 = genesis snapshot only (re-run from the start); 1 = snapshot every step.
CHECKPOINT_INTERVALS = (1, 2, 5, 10, 0)

LOOPS = ("simulator", "cluster", "continuous")

_BATCH = BatchConfig(num_rows=16, row_length=100)


def _requests(seed: int, *, rate: float, horizon: float) -> list[Request]:
    return make_workload(rate, horizon=horizon, seed=seed).generate()


def _fault_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        FaultConfig(
            failure_rate=0.1,
            straggler_rate=0.05,
            oom_rate=0.05,
            crash_rate=0.02,
            downtime=0.3,
        ),
        seed=1000 + seed,
    )


def _run_loop(
    loop: str,
    requests: Sequence[Request],
    seed: int,
    horizon: float,
    plane: Optional[DurabilityPlane] = None,
    resume=None,
):
    """One run of the named serving loop; returns (metrics, tracer)."""
    tr = Tracer()
    if loop == "simulator":
        sim = ServingSimulator(
            make_scheduler("das", _BATCH),
            FaultyEngine(ConcatEngine(_BATCH), _fault_plan(seed)),
            trace=tr,
            durability=plane,
        )
        m = sim.run(requests, horizon=horizon, resume=resume).metrics
    elif loop == "cluster":
        sim = ClusterSimulator(
            make_scheduler("das", _BATCH),
            [
                FaultyEngine(ConcatEngine(_BATCH), _fault_plan(seed * 10 + i))
                for i in range(3)
            ],
            trace=tr,
            durability=plane,
        )
        m = sim.run(requests, horizon=horizon, resume=resume).metrics
    elif loop == "continuous":
        sim = ContinuousBatchingSimulator(
            _BATCH,
            seed=seed,
            fault_plan=_fault_plan(seed),
            trace=tr,
            durability=plane,
        )
        m = sim.run(requests, horizon=horizon, resume=resume)
    else:
        raise ValueError(f"unknown loop {loop!r}")
    return m, tr


def recovery_point(
    loop: str,
    seed: int,
    *,
    checkpoint_every: int = 5,
    rate: float = 60.0,
    horizon: float = 8.0,
    crash_step: Optional[int] = None,
    phase: str = "step",
) -> dict:
    """One crash/restore differential cell.

    Runs the uninterrupted reference, runs again with a planned crash
    (mid-run by default), restores and finishes, and reports the
    snapshots taken, the steps the restored run re-executed (crash step
    − restored step) and whether the terminal ledger and trace digests
    match bit-for-bit (``match`` — anything but 1.0 is a bug).
    """
    requests = _requests(seed, rate=rate, horizon=horizon)
    ref_m, ref_tr = _run_loop(loop, requests, seed, horizon)

    probe = DurabilityPlane(DurabilityConfig())
    _run_loop(loop, requests, seed, horizon, plane=probe)
    nsteps = probe.step

    # A planned crash is a no-op if its step never reaches the target
    # phase (e.g. a dispatch-phase crash on a step that packed nothing),
    # and a cleanly-completed run refuses to restore — so walk outward
    # from the requested step until the crash actually fires.
    mid = max(1, nsteps // 2) if crash_step is None else crash_step
    candidates = [mid]
    if crash_step is None:
        for off in range(1, nsteps):
            candidates += [
                s for s in (mid + off, mid - off) if 1 <= s < nsteps
            ]
    plane = None
    crashed = False
    for cand in candidates:
        plane = DurabilityPlane(
            DurabilityConfig(
                checkpoint_every=checkpoint_every,
                crash=SchedulerCrash(cand, phase=phase),
            )
        )
        try:
            _run_loop(loop, requests, seed, horizon, plane=plane)
        except SchedulerCrashed:
            crashed = True
            crash_step = cand
            break
    if not crashed:
        raise RuntimeError(
            f"recovery_point: no {phase!r}-phase crash fired in any of "
            f"{len(candidates)} candidate steps ({loop}, seed={seed})"
        )
    state = plane.restore()
    m, tr = _run_loop(
        loop, requests, seed, horizon, plane=plane, resume=state
    )
    led, trd = ledger_digest(m), trace_digest(tr)
    ref_led, ref_trd = ledger_digest(ref_m), trace_digest(ref_tr)
    return {
        "loop": loop,
        "seed": seed,
        "checkpoint_every": checkpoint_every,
        "steps": nsteps,
        "crash_step": crash_step,
        "phase": phase,
        "crashed": crashed,
        "snapshots": len(plane.journal.snapshots),
        "rerun": crash_step - state.step,
        "match": float(led == ref_led and trd == ref_trd),
        "ledger_diff": digest_diff(led, ref_led),
        "trace_diff": digest_diff(trd, ref_trd),
    }


def run_recovery(
    intervals: Sequence[int] = CHECKPOINT_INTERVALS,
    *,
    rate: float = 60.0,
    horizon: float = 8.0,
    seeds: Sequence[int] = (0, 1),
) -> dict[str, list[float]]:
    """Checkpoint-interval sweep (``python -m repro ablation recovery``).

    Seed-averaged per interval, on the single-engine loop: snapshot
    count, steps the restored run re-executed, and the differential
    ``match`` rate (must be 1.0 in every column — the sweep doubles as
    a test).
    """
    out: dict[str, list[float]] = {"checkpoint_every": [float(k) for k in intervals]}
    cols = ("snapshots", "rerun", "match")
    out.update(
        seed_means(
            intervals,
            seeds,
            lambda k, seed: recovery_point(
                "simulator",
                seed,
                checkpoint_every=k,
                rate=rate,
                horizon=horizon,
            ),
            {c: itemgetter(c) for c in cols},
        )
    )
    return out


def recovery_smoke(
    *,
    seeds: Sequence[int] = (0, 1, 2),
    loops: Sequence[str] = LOOPS,
    checkpoint_every: int = 4,
    rate: float = 60.0,
    horizon: float = 8.0,
    artifact_dir: str = "recovery_smoke_artifacts",
) -> None:
    """CI chaos smoke: crash/restore differential over a seed matrix.

    Prints one line per (loop, seed) cell; on any digest mismatch,
    writes the failing cell's digest diff into *artifact_dir* and
    raises ``SystemExit(1)`` so CI can upload the artifacts from the
    failed job.
    """
    failures = []
    for loop in loops:
        for seed in seeds:
            # Alternate crash windows: odd seeds crash inside dispatch
            # (mid-step, before the engine runs the batch), even seeds at
            # the step boundary.
            phase = "dispatch" if seed % 2 else "step"
            cell = recovery_point(
                loop,
                seed,
                checkpoint_every=checkpoint_every,
                rate=rate,
                horizon=horizon,
                phase=phase,
            )
            ok = cell["match"] == 1.0
            print(
                f"recovery smoke: {loop:<10} seed={seed} "
                f"crash@{cell['crash_step']}/{cell['steps']}:{phase} "
                f"rerun={cell['rerun']} "
                f"{'OK' if ok else 'MISMATCH'}"
            )
            if not ok:
                failures.append(cell)
    if failures:
        art = Path(artifact_dir)
        art.mkdir(parents=True, exist_ok=True)
        for cell in failures:
            stem = f"{cell['loop']}_seed{cell['seed']}"
            (art / f"{stem}.diff.json").write_text(
                json.dumps(
                    {
                        "ledger_diff": cell["ledger_diff"],
                        "trace_diff": cell["trace_diff"],
                        "crash_step": cell["crash_step"],
                        "checkpoint_every": cell["checkpoint_every"],
                    },
                    indent=2,
                )
            )
        raise SystemExit(
            f"recovery smoke: {len(failures)} mismatched cell(s); "
            f"digest diffs written to {art}/"
        )
    print(
        f"recovery smoke: {len(loops) * len(seeds)} cells, "
        "all crash/restore runs bit-identical to uninterrupted runs"
    )
