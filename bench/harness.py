"""Shared plumbing of the repo benchmark: statistics, spans, the report.

Nothing here knows a workload.  ``SpanRecorder`` is the only tracing
mechanism the benchmark has: spans are opened and closed by code under
``bench/`` (the spies in ``spies.py`` and the workload drivers), kept in
memory, and written to ``bench/results/trace_<workload>.json`` when the
run ends.  The program under ``src/`` is never edited to emit them.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SCHEMA_VERSION = 1

now = time.perf_counter


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as the driver computes them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties."""

    def ranks(vals: Sequence[float]) -> list[float]:
        order = sorted(range(len(vals)), key=vals.__getitem__)
        out = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2.0 + 1.0
            i = j + 1
        return out

    if len(xs) < 2:
        return 0.0
    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return 0.0 if vx == 0 or vy == 0 else cov / math.sqrt(vx * vy)


def timeboxed(
    unit: Callable[[int], None], seconds: float, *, min_units: int = 1
) -> list[float]:
    """Run ``unit(i)`` until ``seconds`` are used; returns each unit's wall.

    A unit is a fixed amount of work, so the count of units — never the
    work inside one — is what a faster or slower machine changes.  The
    loop stops once another half unit would overrun the budget.
    """
    walls: list[float] = []
    start = now()
    while True:
        t = now()
        unit(len(walls))
        walls.append(now() - t)
        if (
            len(walls) >= min_units
            and now() - start + 0.5 * median(walls) > seconds
        ):
            return walls


def stratified_lengths(n: int, dist, rng) -> list[int]:
    """``n`` request lengths from a normal ``LengthDistribution``, stratified.

    One draw from each of ``n`` equal-probability strata, in seed-drawn
    order.  Every seed still samples the paper's length distribution, but
    two seeds give nearly the same multiset of lengths, so a round's token
    count — and with it the work a round is — barely depends on the seed;
    what differs is which request is which.  With independent draws the
    work in a 200-request round differed by +-10% between seeds, which is
    sampling noise of the generator, not something a serving system does.
    """
    if dist.family != "normal":
        raise ValueError("stratified sampling is written for the normal family")
    normal = statistics.NormalDist(dist.mean, max(dist.spread, 1e-9))
    u = (rng.permutation(n) + rng.uniform(size=n)) / n
    return [
        int(min(dist.high, max(dist.low, round(normal.inv_cdf(min(max(x, 1e-12), 1 - 1e-12))))))
        for x in u
    ]


def fresh_heap() -> None:
    """Collect cyclic garbage before a timed unit of work.

    A unit leaves tens of thousands of dead objects in reference cycles
    (ledgers, snapshots, layouts); left alone they make the *next* unit
    pay for them in the collector, so unit N+1 would be timed against a
    heap unit N dirtied.  Collecting outside the timed window makes
    every unit start as a fresh run of the program would.
    """
    gc.collect()


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_info() -> dict:
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #


class SpanRecorder:
    """In-memory span log: name, start, end, parent and run of each span.

    ``parent`` is the index of the span that was open when this one
    began (-1 for a root), which is all self-time attribution needs:
    a span's self time is its duration minus its direct children's.
    Stored as five parallel lists of strings, floats and ints: a list
    per span would be 100k+ objects for the garbage collector to walk
    on every collection of the traced program.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self._stack: list[int] = []
        self.run_id = 0
        # Wall time under root spans, read from clock calls of its own
        # so that it checks the span bookkeeping instead of restating it.
        self.root_wall = 0.0
        self._root_start = 0.0

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str) -> None:
        stack = self._stack
        if not stack:
            self._root_start = now()
        self.parents.append(stack[-1] if stack else -1)
        stack.append(len(self.names))
        self.names.append(name)
        self.runs.append(self.run_id)
        self.ends.append(0.0)
        self.starts.append(now())

    def end(self) -> None:
        t = now()
        self.ends[self._stack.pop()] = t
        if not self._stack:
            self.root_wall += now() - self._root_start

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    # ---- aggregation ------------------------------------------------- #

    def durations(self, name: str) -> list[float]:
        return [
            e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name
        ]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def count(self, name: str) -> int:
        return self.names.count(name)

    def self_times(self) -> dict[str, float]:
        """Self time per span name (duration minus direct children)."""
        child = [0.0] * len(self.names)
        for parent, s, e in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                child[parent] += e - s
        out: dict[str, float] = {}
        for n, s, e, c in zip(self.names, self.starts, self.ends, child):
            out[n] = out.get(n, 0.0) + (e - s) - c
        return out

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer: the span name up to its first dot."""
        out: dict[str, float] = {}
        for name, t in self.self_times().items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def write(self, path: Path, extra: dict) -> None:
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0.0
        doc = {
            "schema": SCHEMA_VERSION,
            **extra,
            "columns": ["name", "start_s", "end_s", "parent", "run"],
            "names": names,
            "self_time_s": self.self_times(),
            "layer_self_time_s": self.layer_self_times(),
            "spans": [
                [index[n], round(s - t0, 7), round(e - t0, 7), parent, run]
                for n, s, e, parent, run in zip(
                    self.names, self.starts, self.ends, self.parents, self.runs
                )
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


class _NoSpans:
    """Stands in for a recorder in the untraced run: records nothing."""

    def begin(self, name: str) -> None:
        pass

    def end(self) -> None:
        pass


NO_SPANS = _NoSpans()


# --------------------------------------------------------------------- #
# The report
# --------------------------------------------------------------------- #


class CheckFailed(Exception):
    """A correctness check of the workload did not hold."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Report:
    """Metrics by name with unit, failure counts and check results."""

    def __init__(self, workload: str, seed: int, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.metrics: dict[str, dict] = {}
        self.samples: dict[str, int] = {}
        self.exact: dict[str, object] = {}
        self.notes: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.check_errors: list[str] = []

    def put(
        self, name: str, value: float, unit: str, *, samples: Optional[int] = None
    ) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        if samples is not None:
            self.samples[name] = samples

    def check(self, label: str, fn: Callable[[], object]) -> bool:
        """Run one correctness check; a raise is recorded, not propagated."""
        try:
            fn()
        except (AssertionError, CheckFailed, ValueError, KeyError) as exc:
            self.check_errors.append(f"{label}: {exc}")
            return False
        return True

    @property
    def correct(self) -> bool:
        return not self.check_errors

    def selected(self, spec: dict) -> dict[str, dict]:
        """The metrics ``BENCHMARK.json`` names for this trace mode.

        A per-layer metric a workload has no use for (the model layer
        on a simulator run) reads 0; an end-to-end metric must be
        there.  A unit that differs from the declared one is an error.
        """
        declared = spec["per_layer"] if self.traced else spec["end_to_end"]
        out: dict[str, dict] = {}
        for m in declared:
            got = self.metrics.get(m["name"])
            if got is None:
                if not self.traced:
                    raise KeyError(f"end-to-end metric {m['name']} not measured")
                got = {"value": 0.0, "unit": m["unit"]}
            if got["unit"] != m["unit"]:
                raise ValueError(
                    f"{m['name']}: unit {got['unit']!r} != declared {m['unit']!r}"
                )
            if not math.isfinite(got["value"]):
                raise ValueError(f"{m['name']}: value {got['value']!r} not finite")
            out[m["name"]] = got
        return out

    def result_line(self, spec: dict) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": int(max(1, self.attempted)),
                "failed": int(self.failed),
                "metrics": self.selected(spec),
            }
        )

    def document(self, spec: dict) -> dict:
        """Everything one run measured, for baselines and ``compare.py``."""
        return {
            "schema": SCHEMA_VERSION,
            "workload": self.workload,
            "seed": self.seed,
            "traced": self.traced,
            "correct": self.correct,
            "check_errors": self.check_errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.selected(spec),
            "samples": self.samples,
            "exact": self.exact,
            "notes": self.notes,
        }

    def print_table(self, spec: dict) -> None:
        chosen = self.selected(spec)
        for name, m in chosen.items():
            n = self.samples.get(name)
            tail = f"  (n={n})" if n is not None else ""
            absent = "  [not applicable to this workload]" if name not in self.metrics else ""
            print(f"{name:45s} {m['value']:>18.6f} {m['unit']}{tail}{absent}")
        for key, value in self.exact.items():
            print(f"exact {key}: {value}")
        for key, value in self.notes.items():
            print(f"note {key}: {value}")
        for err in self.check_errors:
            print(f"CHECK FAILED {err}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())
