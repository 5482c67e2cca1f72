"""Run every workload several times and keep the reports in one file.

    python3 bench/collect.py --seed 0 --repeats 5 --out bench/results/baseline_seed0.json

Each run is its own ``run.py`` process (peak memory and warm-up are per
run), ``--repeats`` untraced runs and one traced run per workload.  The
file is what ``compare.py`` reads; the committed ``baseline_seed*.json``
are the first points of the trajectory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from harness import BENCH_DIR, ROOT, SCHEMA_VERSION, load_spec


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = load_spec()
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]]
    runs = []
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "results") as tmp:
        for name in names:
            for i in range(args.repeats + 1):
                traced = i == args.repeats
                doc = Path(tmp) / "run.json"
                cmd = [
                    sys.executable, str(BENCH_DIR / "run.py"),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(seconds), "--trace", str(int(traced)),
                    "--out", str(doc),
                ]
                done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
                if done.returncode != 0:
                    sys.stderr.write(done.stderr)
                    return done.returncode
                runs.append(json.loads(doc.read_text()))
                print(f"{name} run {i} trace={int(traced)} correct={runs[-1]['correct']}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(
        json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "git_sha": git_sha(),
                "seed": args.seed,
                "run_seconds": seconds,
                "machine": runs[0]["notes"]["machine"],
                "runs": runs,
            },
            indent=1,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
