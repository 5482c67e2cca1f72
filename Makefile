# Convenience targets for the TCB reproduction.

.PHONY: install test bench examples figures lint report trace-smoke overload-smoke recovery-smoke tail-smoke tenancy-smoke clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	PYTHONPATH=src python -m pytest tests/

bench:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

examples:
	for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src python $$f > /dev/null || exit 1; done

figures:
	PYTHONPATH=src python -m repro figure all --out figures_report.txt

# The eight static invariants (TCB001-007, TCB011) always run; ruff and
# mypy run when installed (pip install -e .[dev]) and are skipped with
# a notice otherwise, so `make lint` works in the bare container.
lint:
	PYTHONPATH=src python -m pytest -q tests/test_static_invariants.py
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests; \
	else echo "ruff not installed — skipped (pip install -e .[dev])"; fi
	@if command -v mypy >/dev/null 2>&1; then mypy; \
	else echo "mypy not installed — skipped (pip install -e .[dev])"; fi

# Trace one small fig13 config end-to-end and validate the exported
# Chrome trace_event JSON (schema + metrics reconciliation).
trace-smoke:
	PYTHONPATH=src python -m repro trace fig13 --fast --format chrome --out trace_fig13.json
	PYTHONPATH=src python -c "import json; from repro.obs.export import validate_chrome_trace; validate_chrome_trace(json.load(open('trace_fig13.json'))); print('trace_fig13.json: valid chrome trace')"

# Quick overload-plane sanity: one small off/on goodput comparison.
overload-smoke:
	PYTHONPATH=src python -c "from repro.experiments.overload import overload_point; \
off = overload_point(450.0, shedding=False, horizon=6.0, seed=0); \
on = overload_point(450.0, shedding=True, horizon=6.0, seed=0); \
assert on.goodput_utility > off.goodput_utility, (on.goodput_utility, off.goodput_utility); \
print(f'overload smoke: goodput {off.goodput_utility:.1f} (off) -> {on.goodput_utility:.1f} (on), {on.shed} shed')"

# Crash/restore differential on all three serving loops: kill the
# scheduler mid-run, restore from the journal, and require the finished
# ledger to be bit-identical to the uninterrupted run's.  On a mismatch
# the failing cell's journal (JSONL) and digest diff land in
# recovery_smoke_artifacts/ for offline replay (CI uploads them).
recovery-smoke:
	PYTHONPATH=src python -c "from repro.experiments.recovery import recovery_smoke; recovery_smoke()"

# Straggler chaos sweep for the tail-tolerance plane: a gray-failing
# replica inflates latencies, and hedged dispatch must beat the
# no-hedging baseline's p99 by a fixed margin at equal load with the
# ledger conservation-exact.  The sweep JSON always lands in
# benchmarks/results/tail_smoke/ (CI uploads it).
tail-smoke:
	PYTHONPATH=src python -c "from repro.experiments.tail_tolerance import tail_smoke; tail_smoke()"

# Multi-tenant QoS plane sanity: the noisy-neighbor smoke — a batch
# tenant ramped past its token-bucket quota must not drag the premium
# tenant's on-time rate or the cluster's aggregate throughput below the
# gates.  The sweep JSON always lands in
# benchmarks/results/tenancy_smoke/ (CI uploads it).
tenancy-smoke:
	PYTHONPATH=src python -c "from repro.experiments.tenancy import tenancy_smoke; tenancy_smoke()"

report: lint test bench overload-smoke recovery-smoke tail-smoke tenancy-smoke
	PYTHONPATH=src python -m pytest tests/ 2>&1 | tee test_output.txt
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache */__pycache__ src/repro/__pycache__ src/repro/*/__pycache__
