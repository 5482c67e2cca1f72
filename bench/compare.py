"""Compare two collections of runs, metric by metric.

    python3 bench/compare.py A.json B.json

``A`` is the parent, ``B`` the change; both come from ``collect.py``.
For each workload and end-to-end metric it prints both medians and
quartiles and one verdict, using the direction and the bound
``BENCHMARK.json`` stores:

- ``better``       every run of B beats every run of A, or B's median is
                   better by more than the distance between A's quartiles;
- ``within-bound`` B's median is no worse than A's by more than the bound;
- ``worse``        it is worse by more than the bound;
- ``unresolved``   the spread between runs (quartile distance over
                   median, either side) is wider than the bound, so the
                   runs cannot tell.

Figures on the simulated clock and the ledger digests are compared for
equality, seed by seed; they must not move at all.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from harness import load_spec, quartiles


def untraced(doc: dict, workload: str) -> list[dict]:
    return [r for r in doc["runs"] if r["workload"] == workload and not r["traced"]]


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    if abs(bm - am) <= 1e-9 * abs(am):
        return "within-bound"
    if all(sign * y < sign * x for x in a for y in b):
        return "better"
    if max((a3 - a1) / abs(am), (b3 - b1) / abs(bm)) > bound:
        return "unresolved"
    worse_by = sign * (bm - am) / abs(am)
    if worse_by > bound:
        return "worse"
    if worse_by < 0 and abs(bm - am) > a3 - a1:
        return "better"
    return "within-bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in argv)
    spec = load_spec()
    bad = 0
    print(f"A {argv[0]} ({a_doc['git_sha'][:12]})   B {argv[1]} ({b_doc['git_sha'][:12]})")
    if a_doc["seed"] != b_doc["seed"]:
        print(
            f"seeds differ (A {a_doc['seed']}, B {b_doc['seed']}): the inputs are not the same, "
            "so simulated-clock figures and sim host times say nothing about the code"
        )
    for w in spec["workloads"]:
        a_runs, b_runs = untraced(a_doc, w["name"]), untraced(b_doc, w["name"])
        if not a_runs or not b_runs:
            print(f"{w['name']}: missing on one side")
            continue
        print(f"\n{w['name']}  (A n={len(a_runs)}, B n={len(b_runs)})")
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in a_runs]
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            v = verdict(a, b, m["better"], m["bound"])
            bad += v == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(
                f"  {m['name']:22s} {m['unit']:8s}"
                f" A {qa[1]:12.4f} [{qa[0]:.4f}, {qa[2]:.4f}]"
                f" B {qb[1]:12.4f} [{qb[0]:.4f}, {qb[2]:.4f}]"
                f"  {v} (bound {m['bound']:.0%}, {m['better']} is better)"
            )
        failed = [sum(r["failed"] for r in runs) for runs in (a_runs, b_runs)]
        print(f"  failed operations      A {failed[0]} B {failed[1]}" + ("  worse" if failed[1] > failed[0] else ""))
        bad += failed[1] > failed[0]
        a_exact = {r["seed"]: r["exact"] for r in a_runs}
        for seed, b_exact in sorted({r["seed"]: r["exact"] for r in b_runs}.items()):
            for key in sorted(set(b_exact) & set(a_exact.get(seed, {}))):
                same = a_exact[seed][key] == b_exact[key]
                # Online goodput sums over whichever requests made their
                # deadline on the wall clock; only the simulators are exact.
                exact = w["name"].startswith("sim_") or key == "ledger_sha256"
                if exact or not same:
                    state = "equal" if same else "differs" if exact else "differs (wall clock)"
                    print(f"  exact seed {seed} {key}: {state}")
                    bad += exact and not same
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
