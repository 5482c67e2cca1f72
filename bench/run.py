"""The repo benchmark: one process, one workload, one JSON line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --selftest

``--trace 0`` measures the end-to-end metrics with no spy in place;
``--trace 1`` runs the same workload under the spies of ``spies.py`` and
reports the per-layer metrics, writing the spans to
``bench/results/trace_<workload>.json``.  Every metric is printed by
name with its unit, the workload's correctness checks run on every
invocation, and the last line of standard output is the result object
the driver reads.  See ``bench/README.md``.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: the load generator, the server and the kernels share
# one core, so run-to-run spread is not a thread-scheduling artefact.
# Must happen before NumPy is imported.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "src"))

try:
    import repro
except ImportError as exc:  # a checkout without the program: nothing to measure
    sys.stderr.write(f"bench: cannot import the program from {ROOT / 'src'}: {exc}\n")
    sys.exit(2)
if ROOT / "src" not in Path(repro.__file__).resolve().parents:
    sys.stderr.write(f"bench: 'repro' resolved to {repro.__file__}, not this checkout\n")
    sys.exit(2)

import offline_schemes
import online_paper
import sims
from harness import (
    RESULTS_DIR,
    CheckFailed,
    Report,
    SpanRecorder,
    load_spec,
    machine_info,
    now,
)

WORKLOADS = {
    "online_paper": (online_paper.run, online_paper.Params()),
    "offline_schemes": (offline_schemes.run, offline_schemes.Params()),
    "sim_saturated": (sims.run_saturated, sims.SaturatedParams()),
    "sim_planes": (sims.run_planes, sims.PlanesParams()),
}


def run_one(
    workload: str, seed: int, seconds: float, traced: bool, *, shrunk: bool = False
) -> Report:
    """Measure one workload in one trace mode; returns the filled report."""
    fn, params = WORKLOADS[workload]
    if shrunk:
        params = params.shrunk()
    report = Report(workload, seed, traced)
    rec = SpanRecorder() if traced else None
    start = now()
    fn(report, seconds, params, rec)
    if rec is not None:
        layers = rec.layer_self_times()
        wall = rec.root_wall
        report.put("trace.coverage_share", sum(layers.values()) / wall, "share")
        report.put(
            "trace.unattributed_share",
            (layers.get("bench", 0.0) + layers.get("workload", 0.0)) / wall,
            "share",
        )
        report.put("trace.spans", len(rec), "count")
        rec.write(
            RESULTS_DIR / f"trace_{workload}.json",
            {"workload": workload, "seed": seed, "traced_wall_s": wall, **machine_info()},
        )
    report.notes["run_wall_s"] = now() - start
    report.notes["machine"] = machine_info()
    return report


def selftest(spec: dict) -> int:
    """A shrunken pass of every workload in both modes.

    Checks that every metric ``BENCHMARK.json`` names is emitted, finite
    and of the declared unit, so a later change can tell a broken
    harness from a regression.  Values are not judged.
    """
    failures = 0
    for workload in WORKLOADS:
        for traced in (False, True):
            label = f"{workload} trace={int(traced)}"
            try:
                report = run_one(workload, 0, 1.0, traced, shrunk=True)
                chosen = report.selected(spec)
                absent = [n for n in chosen if n not in report.metrics]
                if not report.correct:
                    raise CheckFailed("; ".join(report.check_errors))
                print(f"ok   {label}: {len(chosen)} metrics, {len(absent)} not applicable")
            except (CheckFailed, KeyError, ValueError) as exc:
                failures += 1
                print(f"FAIL {label}: {exc}")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--out", type=Path, help="also write the run's full report here")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.selftest:
        return selftest(spec)
    if args.workload is None:
        ap.error("--workload is required")
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds
    if seconds <= 0:
        ap.error("--seconds must be positive")
    traced = bool(args.trace) or args.traced

    report = run_one(args.workload, args.seed, seconds, traced)
    print(f"workload {args.workload} seed {args.seed} seconds {seconds} trace {int(traced)}")
    print(f"blas_threads {os.environ['OPENBLAS_NUM_THREADS']} nproc {os.cpu_count()}")
    report.print_table(spec)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report.document(spec), indent=1))
    print(report.result_line(spec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
