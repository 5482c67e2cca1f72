"""Deterministic work guard for the scheduler → packer hot path.

No clock: the interpreter's own hooks count what one ``select`` and one
pack do on a fixed deep-queue instance (1 000 waiting requests, 64 rows
× 100 tokens — the shape of the saturated simulator workload).  The
counts are exact and repeat on any machine, so a return to sorting per
row, to walking every candidate per row, or to re-summing a row's
segments per probe fails here whatever the box is doing.

The second half does the same for what the planes add per decision on
the shallow-queue, every-plane-on shape (3 tenants, 16 rows × 100
tokens, ~45 waiting): lowerings per fair-share decision, layout widths
per batch annotation, and what one tracer emission stores.

The last part counts what one decode step of the real NumPy model does:
linears per layer, the largest array a step allocates, and the K/V
elements that a request leaving the active set copies; and what the
encoder keeps alive at once, and which kernel a measured slotted engine
runs.
"""

import gc
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro.model.attention as attention
import repro.model.feedforward as feedforward
import repro.model.generation as generation
import repro.obs.recorder as recorder
from repro.config import BatchConfig, ModelConfig
from repro.core.packing import pack_first_fit
from repro.core.slotting import pack_into_slots
from repro.durability import DurabilityConfig, DurabilityPlane
from repro.engine.base import EngineMode
from repro.engine.concat import ConcatEngine
from repro.engine.memory import GPUMemorySimulator
from repro.engine.slotted import SlottedConcatEngine
from repro.model.seq2seq import Seq2SeqModel
from repro.obs.recorder import Tracer
from repro.rng import ensure_rng
from repro.scheduling import das
from repro.scheduling.base import SchedulingDecision
from repro.scheduling.das import DASFill, DASScheduler
from repro.scheduling.queue import RequestQueue
from repro.experiments.serving_sweeps import make_workload
from repro.serving.continuous import ContinuousBatchingSimulator, admit
from repro.serving.lifecycle import Lifecycle
from repro.serving.simulator import ServingSimulator
from repro.tenancy import TenancyPlane, TenantClass, TenantRegistry
from repro.tenancy.fairshare import fair_select
from repro.types import Request
from repro.watermark import Watermark
from tests.conftest import REPEATED, grouped_eos_model, make_tokenized_requests

BATCH = BatchConfig(num_rows=64, row_length=100)
DEPTH = 1000
SORTS = ("sorted", "sort", "argsort", "lexsort")


class Work:
    """What one call did: calls by name, and executions per source line."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()  # C and Python callables, by name
        self.frames: Counter = Counter()  # Python frames, by (file stem, name)
        self.lines: Counter = Counter()  # (file stem, function, line number)

    def python_calls(self, stem: str) -> int:
        return sum(n for (s, _), n in self.frames.items() if s == stem)

    def hottest_line(self, stem: str, function: str) -> int:
        """Executions of the most-executed line of *function* (its inner loop)."""
        return max(
            (n for (s, f, _), n in self.lines.items() if (s, f) == (stem, function)),
            default=0,
        )


def measure(fn, *args) -> tuple[object, Work]:
    work = Work()

    def on_call(frame, event, arg):
        if event == "c_call":
            work.calls[getattr(arg, "__name__", "?")] += 1
        elif event == "call":
            code = frame.f_code
            work.calls[code.co_name] += 1
            work.frames[(Path(code.co_filename).stem, code.co_name)] += 1

    def on_line(frame, event, arg):
        if event == "line":
            code = frame.f_code
            work.lines[(Path(code.co_filename).stem, code.co_name, frame.f_lineno)] += 1
        return on_line

    def on_frame(frame, event, arg):
        return on_line if "repro" in frame.f_code.co_filename else None

    sys.setprofile(on_call)
    sys.settrace(on_frame)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    return result, work


@pytest.fixture(scope="module")
def waiting():
    """A deep queue with §6.2.1 lengths, through the production queue."""
    rng = ensure_rng(21)
    queue = RequestQueue()
    for i in range(DEPTH):
        queue.add(
            Request(
                request_id=i,
                length=int(min(100, max(3, round(rng.normal(20.0, 20.0))))),
                arrival=0.0,
                deadline=float(rng.uniform(1.0, 6.0)),
            )
        )
    return queue.waiting(0.5)


@pytest.fixture(scope="module")
def selection(waiting):
    decision, work = measure(DASScheduler(BATCH).select, waiting)
    assert len(decision.rows) == BATCH.num_rows
    return decision.selected(), work


class TestSelectWork:
    def test_orders_the_candidates_once(self, selection):
        _, work = selection
        # One utility ordering and one deadline ordering per decision …
        assert work.calls["lexsort"] == 2
        # … and no other sort of any kind, so none per row.
        assert sum(work.calls[name] for name in SORTS) == 2
        # No key function: nothing of ours is called per comparison.
        assert work.frames[("das", "<lambda>")] == 0
        assert work.frames[("queue", "<lambda>")] == 0
        assert work.calls["itemgetter"] == 0

    def test_python_calls_do_not_grow_with_rows_times_candidates(self, selection):
        _, work = selection
        rows = BATCH.num_rows
        # A few passes over the candidates to lower them to columns, and
        # a handful of calls per row.
        assert work.python_calls("queue") <= 6
        assert work.python_calls("das") <= 3 * DEPTH + 4 * rows
        assert work.frames[("types", "utility")] == DEPTH

    def test_walks_stop_at_the_shortest_live_request(self, selection):
        selected, work = selection
        # Candidates examined while filling N^D and the back-fill, all
        # rows together.  Each row's walk ends once its spare capacity
        # is below the shortest request still alive, so this stays near
        # what was taken (505 for 559 selected) — not rows × candidates
        # (64 000), and not the 7 677 it is on this instance when the
        # bound is the shortest request of the whole waiting set.
        examined = work.hottest_line("das", "take")
        assert len(selected) // 2 <= examined <= 2 * len(selected)
        # The saturating-prefix scan restarts at the first live entry.
        assert 0 < work.hottest_line("das", "_fill") <= 4 * len(selected)

    def test_a_decisions_columns_die_with_the_decision(self, waiting):
        # A deep queue leaves the row generator suspended; if it held its
        # fill there would be a cycle, and every decision's columns (the
        # lowered queue, ~1 000 entries each) would sit on the heap until
        # the cyclic collector happened to run — host time and memory
        # that depend on when that is.
        scheduler = DASScheduler(BATCH)
        gc.collect()
        gc.disable()
        try:
            fill = scheduler.open(waiting, 0.5)
            assert len(fill.next_rows(BATCH.num_rows).rows) == BATCH.num_rows
            gone = weakref.ref(fill)
            del fill
            assert gone() is None
            for _ in range(5):
                scheduler.select(waiting, 0.5)
            assert not any(isinstance(o, DASFill) for o in gc.get_objects())
        finally:
            gc.enable()


class TestPackWork:
    def test_first_fit_reads_occupancy_once_per_placement(self, selection):
        selected, _ = selection
        result, work = measure(
            pack_first_fit, selected, BATCH.num_rows, BATCH.row_length
        )
        packed = len(result.packed)
        assert packed == len(selected)
        # O(requests + rows) occupancy reads, none of them a re-sum.
        assert work.frames[("layout", "used")] == packed
        assert work.calls["sum"] == 0
        assert work.frames[("layout", "<genexpr>")] == 0
        assert work.frames[("layout", "length")] == 0
        # One probe per request; all of them together scan each row at
        # most once per distinct length.
        assert work.frames[("packing", "first_fit")] == packed
        lengths = len({r.length for r in selected})
        assert work.hottest_line("packing", "first_fit") <= packed + lengths * BATCH.num_rows
        # Objects built: a segment per request, a row per row, the
        # layout and the result.
        assert work.calls["__init__"] == packed + BATCH.num_rows + 2
        assert work.python_calls("layout") + work.python_calls("packing") <= (
            6 * packed + 2 * BATCH.num_rows + 8
        )

    def test_slot_packing_reads_occupancy_once_per_placement(self, selection):
        selected, _ = selection
        slot_size = 25
        result, work = measure(
            pack_into_slots, selected, BATCH.num_rows, BATCH.row_length, slot_size
        )
        packed = len(result.packed)
        slots = BATCH.num_rows * (BATCH.row_length // slot_size)
        assert packed > 0 and result.rejected
        # The slot's total is read once per placement; the row's is not
        # read at all (its segments are appended directly).
        assert work.frames[("layout", "used")] == packed
        assert work.frames[("layout", "<genexpr>")] == 0
        assert work.frames[("layout", "length")] == 0
        assert work.frames[("packing", "first_fit")] <= len(selected)
        assert work.calls["__init__"] == packed + slots + BATCH.num_rows + 2


class TestContinuousWork:
    """The iteration-level loop costs what it admits, not the queue depth."""

    @pytest.mark.parametrize("fcfs", [True, False])
    def test_admission_walks_what_it_admits(self, waiting, fcfs):
        # A 64 × 100 budget with residents holding 4 000 of it.
        free = BATCH.capacity_tokens - 4000
        admitted, work = measure(
            lambda: admit(waiting, free, BATCH.row_length, fcfs=fcfs)
        )
        assert 50 <= len(admitted) < DEPTH // 2
        # The per-candidate walk visited every waiting request (1 000
        # executions of its loop line) before admission went to columns.
        hottest = max(n for (stem, _, _), n in work.lines.items() if stem == "continuous")
        assert hottest <= len(admitted) + 1
        # One ordering, no key function, no utility property read.
        assert work.calls["lexsort"] == 1
        assert sum(work.calls[name] for name in SORTS) == 1
        assert work.frames[("types", "utility")] == 0

    @pytest.fixture(scope="class")
    def continuous_run(self):
        """A saturated utility-admission run with its draw calls counted."""

        class Counted(np.random.Generator):
            def geometric(self, *args, **kwargs):  # a Python frame per call
                return super().geometric(*args, **kwargs)

        rng = ensure_rng(26)
        requests = [
            Request(
                request_id=i,
                length=int(min(100, max(3, round(rng.normal(20.0, 20.0))))),
                arrival=0.005 * i,
                deadline=0.005 * i + 4.0,
            )
            for i in range(DEPTH)
        ]
        sim = ContinuousBatchingSimulator(
            BATCH, admission="utility", rng=Counted(np.random.PCG64(0))
        )
        return measure(lambda: sim.run(requests, horizon=10.0))

    def test_one_output_length_draw_per_admitting_iteration(self, continuous_run):
        metrics, work = continuous_run
        admitting = work.frames[("lifecycle", "dispatch")]
        assert admitting >= 5
        assert metrics.num_served > 4 * admitting
        assert work.calls["geometric"] == admitting

    def test_decode_step_has_no_per_resident_line(self, continuous_run):
        metrics, work = continuous_run
        iterations = work.frames[("lifecycle", "tick")]
        # A few line events per pass of the loop: a statement that spans
        # lines reports its first line again after each nested call.
        allowed = 4 * (iterations + 1)
        assert work.hottest_line("continuous", "run") <= allowed
        # Every served request decoded for at least two iterations, so a
        # line run once per resident per iteration would run at least
        # 2 × served times: several times what is allowed.
        assert 2 * metrics.num_served > 5 * allowed
        assert work.frames[("continuous", "<genexpr>")] == 0
        # The comprehensions are admit's (over what it admitted) and the
        # two that read a resumed resident set at the start of the run.
        comprehensions = work.frames[("continuous", "<listcomp>")]
        assert comprehensions <= work.frames[("continuous", "admit")] + 2


# --------------------------------------------------------------------- #
# What the planes add per decision
# --------------------------------------------------------------------- #

PLANES_BATCH = BatchConfig(num_rows=16, row_length=100)
TENANTS = ("premium", "standard", "batch")


def _shallow(n=45, seed=5):
    rng = ensure_rng(seed)
    return [
        Request(
            request_id=i,
            length=int(min(100, max(3, round(rng.normal(20.0, 20.0))))),
            arrival=0.0,
            deadline=float(rng.uniform(1.0, 6.0)),
            tenant=TENANTS[int(rng.integers(len(TENANTS)))],
        )
        for i in range(n)
    ]


class TestFairShareWork:
    def test_one_lowering_per_tenant_per_decision(self):
        groups: dict = {}
        for r in _shallow():
            groups.setdefault(r.tenant, []).append(r)
        decision, work = measure(
            lambda: fair_select(
                DASScheduler(PLANES_BATCH), groups, 0.0,
                weights={t: 1.0 for t in groups}, deficits={}, rng=ensure_rng(0),
            )
        )
        # Every tenant is oversubscribed for a row, so every row comes
        # off columns — lowered once per tenant, not once per row (the
        # per-row re-select made 9 lowerings and 12 selects for these 12 rows).
        assert len(decision.rows) >= 10
        assert 1 <= work.frames[("queue", "utility_columns")] <= len(groups)
        assert work.calls["lexsort"] <= 2 * len(groups)
        # ... and the scheduler object is not reconfigured per row.
        assert work.frames[("das", "select")] == 0

    def test_rows_are_pulled_without_numpy_or_decision_objects(self, monkeypatch):
        groups: dict = {}
        for r in _shallow():
            groups.setdefault(r.tenant, []).append(r)
        assert max(map(len, groups.values())) <= das.SHALLOW_POOL
        built = []
        init = SchedulingDecision.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SchedulingDecision, "__init__", counted)
        numpy_calls, lowerings = Counter(), Counter()

        def on_call(frame, event, arg):
            # A C call is reported in its caller's frame; a NumPy function
            # written in Python in its own, whose caller is one up.
            if event == "c_call":
                owner = getattr(arg, "__self__", None)
                if getattr(arg, "__module__", None) == "numpy" or isinstance(owner, np.ndarray):
                    caller = frame
                else:
                    return
            elif event == "call":
                if frame.f_code.co_name == "utility_columns":
                    lowerings["utility_columns"] += 1
                if "numpy" not in frame.f_code.co_filename or frame.f_back is None:
                    return
                caller = frame.f_back
            else:
                return
            if Path(caller.f_code.co_filename).stem == "das":
                numpy_calls[getattr(arg, "__name__", frame.f_code.co_name)] += 1

        sys.setprofile(on_call)
        try:
            decision = fair_select(
                DASScheduler(PLANES_BATCH), groups, 0.0,
                weights={t: 1.0 for t in groups}, deficits={}, rng=ensure_rng(0),
            )
        finally:
            sys.setprofile(None)
        assert len(decision.rows) >= 10 and lowerings["utility_columns"] == len(groups)
        # The decision is the one SchedulingDecision built; the rows are
        # walked over the lowered lists, and all das.py asks of NumPy is
        # the EDF order as a list, once per lowering (the masked walk
        # made ~10 calls per row here).
        assert built == [decision]
        assert numpy_calls == Counter(tolist=len(groups))

    @pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (4.0, 1.0, 0.25)])
    def test_the_tie_break_generator_is_built_only_for_a_tie(self, weights):
        registry = TenantRegistry(
            {t: TenantClass(name=t, weight=w) for t, w in zip(TENANTS, weights)}
        )
        plane = TenancyPlane(registry, seed=3)
        waiting = _shallow()
        plane.arrive(waiting)
        decision, work = measure(plane.select, DASScheduler(PLANES_BATCH), waiting, 0.0)
        assert len(decision.rows) >= 10
        # Equal weights tie on the first row; 4 : 1 : ¼ never tie.  (A
        # Generator comes from a seed only through ensure_rng.)
        assert work.frames[("rng", "ensure_rng")] == (len(set(weights)) == 1)


def _plane_calls(work):
    """``TenancyPlane`` method calls by name (comprehensions are their
    method's own work)."""
    return {
        name: n
        for (stem, name), n in work.frames.items()
        if stem == "plane" and not name.startswith("<")
    }


class TestTenancyArrivalWork:
    """What the tenancy plane is asked per slot of arrivals."""

    @staticmethod
    def _admit_slot(registry, k):
        arrivals = [
            Request(
                request_id=i, length=10, arrival=0.001 * i, deadline=5.0,
                tenant=TENANTS[i % len(TENANTS)],
            )
            for i in range(k)
        ]
        life = Lifecycle(DASScheduler(PLANES_BATCH), tenancy=TenancyPlane(registry))
        life.begin(arrivals, horizon=1.0)
        _, work = measure(life.admit_arrivals, 1.0)
        assert len(life.queue) == k and life.next_arrival == k
        return _plane_calls(work)

    def test_a_slot_of_quota_free_arrivals_is_one_call(self):
        registry = TenantRegistry({t: TenantClass(name=t) for t in TENANTS})
        assert self._admit_slot(registry, 60) == {"arrive": 1}

    def test_only_constrained_tenants_are_admitted_one_by_one(self):
        registry = TenantRegistry(
            {
                "premium": "premium",
                "standard": "standard",
                "batch": TenantClass(name="batch", weight=0.25, max_in_flight=10_000),
            }
        )
        calls = self._admit_slot(registry, 60)
        # 20 batch requests, plus the first of each quota-free tenant,
        # which puts it on the passed-over list.
        assert calls["refusals"] == 1 and calls["_admit"] == 20 + 2

    def test_single_tenant_run_asks_per_decision_not_per_arrival(self):
        wl = make_workload(100.0, horizon=3.0, seed=0, base_slack=12.0).generate()
        sim = ServingSimulator(
            DASScheduler(PLANES_BATCH), ConcatEngine(PLANES_BATCH), tenancy=TenancyPlane()
        )
        _, work = measure(lambda: sim.run(wl, horizon=3.0))
        calls = _plane_calls(work)
        decisions = work.frames[("lifecycle", "select")]
        assert decisions > 2 and work.frames[("fairshare", "fair_select")] == 0
        assert calls["select"] == calls["_groups"] == decisions
        assert "key" not in calls and "_admit" not in calls
        # One count per slot's range of arrivals, not one per request.
        assert calls["arrive"] <= work.frames[("lifecycle", "admit_arrivals")]
        assert calls["arrive"] < len(wl) / 2
        # Besides those, once per run, and one release per lifecycle event
        # that frees requests (plus the end-of-run sweep's two).
        per_run = {"begin_run", "bind", "finalize", "book"}
        assert set(calls) <= per_run | {"select", "_groups", "arrive", "release"}
        assert calls["release"] <= work.frames[("lifecycle", "_release")] + 2


class TestAnnotationWork:
    def test_one_width_per_layout(self):
        engine = ConcatEngine(PLANES_BATCH)
        result = engine.serve(_shallow(60)[:40])
        (layout,) = result.layouts
        occupied = sum(1 for row in layout.rows if row.segments)
        assert occupied >= 5
        memory = GPUMemorySimulator(512)
        _, work = measure(memory.watermark_bytes, layout)
        # Once per layout; it was once per occupied row.
        assert work.frames[("layout", "effective_width")] == 1
        engine.trace_annotations(result)  # warm the cost model's memo
        _, work = measure(engine.trace_annotations, result)
        # The cost model's fingerprint reads it once, the watermark once.
        assert work.frames[("layout", "effective_width")] <= 2 * len(result.layouts)
        # A row's extent is a running figure, not a pass over segments.
        assert work.frames[("layout", "extent")] > 0
        assert work.frames[("layout", "end")] == 0


class TestTracerWork:
    @pytest.fixture()
    def traced_run(self, monkeypatch):
        """A traced, checkpointed simulator run with every
        ``RequestEvent`` construction counted."""
        built = []

        class Counted(recorder.RequestEvent):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(recorder, "RequestEvent", Counted)
        requests = sorted(
            (
                Request(
                    request_id=r.request_id, length=r.length,
                    arrival=0.01 * r.request_id, deadline=0.01 * r.request_id + 2.0,
                )
                for r in _shallow(300)
            ),
            key=lambda r: r.arrival,
        )
        tracer = Tracer()
        plane = DurabilityPlane(DurabilityConfig(checkpoint_every=2))
        sim = ServingSimulator(
            DASScheduler(PLANES_BATCH), ConcatEngine(PLANES_BATCH),
            trace=tracer, durability=plane,
        )
        _, work = measure(lambda: sim.run(requests, horizon=6.0))
        return tracer, plane, work, built

    def test_one_entry_per_emission_and_no_event_objects(self, traced_run):
        tracer, plane, work, built = traced_run
        emissions = sum(
            work.frames[("recorder", name)]
            for name in ("_emit", "_end", "batch", "decision", "durability")
        )
        assert emissions > 1000
        assert len(tracer.log) == emissions
        assert len(plane.journal.snapshots) > 3
        # The write path never builds an event object ...
        assert built == []
        assert work.frames[("recorder", "_fold")] == 0
        # ... reading does, one per lifecycle entry, once.
        lifecycle = sum(1 for entry in tracer.log if len(entry) == 4)
        assert sum(len(evs) for evs in tracer.events.values()) == lifecycle
        assert len(built) == lifecycle
        tracer.spans()
        assert len(built) == lifecycle

    def test_export_state_does_not_grow_with_the_log(self, traced_run):
        tracer, _, _, _ = traced_run
        small = Tracer()
        small.arrive(Request(request_id=0, length=3, arrival=0.0, deadline=1.0), 0.0)
        state, big_work = measure(tracer.export_state)
        _, small_work = measure(small.export_state)
        assert len(tracer.log) > 1000 * len(small.log)
        assert big_work.calls == small_work.calls
        (watermark,) = state.values()
        assert isinstance(watermark, Watermark)
        assert watermark.ref is tracer.log and watermark.n == len(tracer.log)


# --------------------------------------------------------------------- #
# One decode step of the real model
# --------------------------------------------------------------------- #

# Nine requests, four lengths: groups of 3, 2, 3 and 1.
DECODE_LENGTHS = [40, 40, 40, 55, 55, 30, 30, 30, 45]


def _kv_arrays(cache):
    """Every K/V array a decode holds: self caches, then each group's blocks."""
    return [*cache.self_k, *cache.self_v, *_group_arrays(cache.groups)]


def _group_arrays(groups):
    return [a for g in groups for a in (*g.keys, *g.values)]


def _written(arrays, before):
    """Elements of ``arrays`` that are new objects or differ from ``before``."""
    n = 0
    for a in arrays:
        old = before.get(id(a))
        if old is not None and old[0] is a:
            n += int(np.count_nonzero(a.view(np.uint64) != old[1].view(np.uint64)))
        else:
            n += a.size
    return n


class TestDecodeWork:
    @pytest.fixture()
    def decode(self, tiny_model, monkeypatch):
        """``greedy_decode`` with memory, and the ``_Cache`` it decoded with."""
        layout = pack_first_fit(
            make_tokenized_requests(DECODE_LENGTHS, tiny_model.config), 4, 128
        ).layout
        assert layout.num_requests == len(DECODE_LENGTHS)
        memory = tiny_model.encode_layout(layout)
        caches = []
        init = generation._Cache.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            caches.append((self, _kv_arrays(self)))

        monkeypatch.setattr(generation._Cache, "__init__", spy)

        def run(model, budget):
            caches.clear()
            return model.greedy_decode(layout, budget, memory=memory), caches[0]

        return run

    def test_six_linears_per_layer_per_step(self, tiny_model, decode, monkeypatch):
        """One fused Q/K/V and one O for self-attention, Q and O for
        cross-attention, two for the FFN (eight before Q/K/V were fused)."""
        run = decode
        calls = []
        for module in (generation, feedforward):
            linear = module.linear

            def counted(x, weight, bias=None, linear=linear):
                calls.append(weight.shape)
                return linear(x, weight, bias)

            monkeypatch.setattr(module, "linear", counted)
        per_budget = {}
        for budget in (2, 3):
            calls.clear()
            result, _ = run(tiny_model, budget)
            assert result.steps_run == budget
            per_budget[budget] = len(calls)
        layers = tiny_model.config.num_decoder_layers
        assert per_budget[3] - per_budget[2] == 6 * layers
        # Setup projects each layer's cross K/V once, in one linear.
        assert per_budget[2] == 2 * 6 * layers + layers

    def test_a_step_allocates_no_per_token_array(self, tiny_model, decode, monkeypatch):
        """Cross-attention works on the group blocks: a step's live
        temporaries never reach half of one ``(T, d)`` array, the size that
        gathering the queries to every packed token (``q[owner]``) takes."""
        run = decode
        per_token_bytes = sum(DECODE_LENGTHS) * tiny_model.config.d_model * 8
        peaks, start = [], []
        embed, project = tiny_model.embed, tiny_model.project_logits

        def step_starts(tokens, positions):
            tracemalloc.reset_peak()
            start.append(tracemalloc.get_traced_memory()[0])
            return embed(tokens, positions)

        def step_ends(h):
            peaks.append(tracemalloc.get_traced_memory()[1] - start[-1])
            return project(h)

        monkeypatch.setattr(tiny_model, "embed", step_starts)
        monkeypatch.setattr(tiny_model, "project_logits", step_ends)
        tracemalloc.start()
        try:
            result, _ = run(tiny_model, 4)
        finally:
            tracemalloc.stop()
        assert len(peaks) == result.steps_run == 4
        assert max(peaks) < per_token_bytes / 2

    def test_no_kv_copied_without_eos(self, tiny_model, decode):
        run = decode
        result, (cache, arrays) = run(tiny_model, 6)
        assert result.steps_run == 6
        assert set(result.completion_step.values()) == {6}
        kept = _kv_arrays(cache)
        assert len(kept) == len(arrays)
        assert all(a is b for a, b in zip(kept, arrays))

    def test_eos_copies_at_most_the_groups_that_lost_a_member(self, monkeypatch):
        """A request leaving compacts the groups that lost a member — their
        survivors' blocks — and the self caches keep the survivors' rows;
        no other K/V element is written."""
        model = grouped_eos_model()
        layout = pack_first_fit(
            make_tokenized_requests(REPEATED, model.config), 3, 16
        ).layout
        retire = generation._Cache.retire
        events = []

        def counted(self, alive, going):
            finished = alive[~going]
            before = {id(a): (a, a.copy()) for a in _kv_arrays(self)}
            cross_bound = 0
            for g in self.groups:
                gone = np.isin(g.members, finished)
                if gone.any():
                    per_member = sum(a[0].size for a in (*g.keys, *g.values))
                    cross_bound += per_member * int((~gone).sum())
            self_bound = sum(a[0].size for a in (*self.self_k, *self.self_v)) * int(going.sum())
            retire(self, alive, going)
            events.append(
                (
                    _written(_group_arrays(self.groups), before),
                    cross_bound,
                    _written([*self.self_k, *self.self_v], before),
                    self_bound,
                )
            )

        monkeypatch.setattr(generation._Cache, "retire", counted)
        result = model.greedy_decode(layout, max_new_tokens=8)
        assert len(set(result.completion_step.values())) >= 3
        assert len(events) >= 2
        for cross, cross_bound, own, self_bound in events:
            assert cross <= cross_bound
            assert own <= self_bound
        # Survivors did move: group compaction ran.
        assert any(cross > 0 for cross, *_ in events)


class TestEncodeWorkingSet:
    def test_concat_encode_holds_only_the_residual_streams(self):
        """At the bench model shape, one concat encode of ~4k tokens peaks
        below six ``(T, d)`` arrays: the input and output streams plus one
        chunk's temporaries.  The whole-batch layer loop held about 13."""
        cfg = ModelConfig(
            vocab_size=256,
            d_model=128,
            num_heads=4,
            num_encoder_layers=2,
            num_decoder_layers=2,
            max_len=400,
        )
        model = Seq2SeqModel(cfg, seed=0)
        lengths = np.random.default_rng(0).integers(3, 40, size=200).tolist()
        layout = pack_first_fit(make_tokenized_requests(lengths, cfg), 10, 400).layout
        assert layout.scheme == "concat" and layout.useful_tokens >= 3000
        index = layout.segment_index()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model.encode_requests(layout, index)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 6 * layout.useful_tokens * cfg.d_model * 8

    def test_measured_slotted_engine_runs_the_packed_stack(self, monkeypatch):
        """Eq. 8 is the ablation's arm: serving a slotted layout makes no
        slot-wise encode and no ``att_cb_s`` call."""
        calls = Counter()
        encode_layout, att_cb_s = Seq2SeqModel.encode_layout, attention.att_cb_s

        def counted_encode(self, layout, **kwargs):
            calls["slotted encode"] += bool(kwargs.get("slotted"))
            return encode_layout(self, layout, **kwargs)

        def counted_att_cb_s(*args, **kwargs):
            calls["att_cb_s"] += 1
            return att_cb_s(*args, **kwargs)

        monkeypatch.setattr(Seq2SeqModel, "encode_layout", counted_encode)
        monkeypatch.setattr(attention, "att_cb_s", counted_att_cb_s)
        engine = SlottedConcatEngine(
            BatchConfig(num_rows=2, row_length=16),
            num_slots=2,
            mode=EngineMode.MEASURED,
            model_config=ModelConfig.tiny(),
        )
        result = engine.serve(make_tokenized_requests([4, 3, 6, 2], ModelConfig.tiny()))
        assert result.num_served == 4
        assert any(row.slots for layout in result.layouts for row in layout.rows)
        assert calls["slotted encode"] == calls["att_cb_s"] == 0
