"""Tests for the four inference engines."""

import numpy as np
import pytest

from repro.config import BatchConfig, ModelConfig
from repro.engine import (
    ConcatEngine,
    EngineMode,
    NaiveEngine,
    SlottedConcatEngine,
    TurboEngine,
)
from repro.types import make_requests


@pytest.fixture()
def batch():
    return BatchConfig(num_rows=4, row_length=20)


class TestNaiveEngine:
    def test_one_request_per_row(self, batch):
        eng = NaiveEngine(batch)
        reqs = make_requests([3, 7, 5], start_id=0)
        layouts, rejected = eng.plan(reqs)
        assert not rejected
        assert len(layouts) == 1
        assert all(row.num_requests == 1 for row in layouts[0].rows)
        assert layouts[0].effective_width == 7

    def test_chunks_by_batch_rows(self, batch):
        eng = NaiveEngine(batch)
        reqs = make_requests([2] * 10, start_id=0)
        layouts, _ = eng.plan(reqs)
        assert [l.num_rows for l in layouts] == [4, 4, 2]

    def test_arrival_order_not_length_order(self, batch):
        eng = NaiveEngine(batch)
        reqs = make_requests(
            [9, 2, 8, 3], arrivals=[0.0, 1.0, 2.0, 3.0], start_id=0
        )
        layouts, _ = eng.plan(list(reversed(reqs)))
        ids = [row.segments[0].request.request_id for row in layouts[0].rows]
        assert ids == [0, 1, 2, 3]

    def test_oversize_rejected(self, batch):
        eng = NaiveEngine(batch)
        reqs = make_requests([25, 5], start_id=0)
        layouts, rejected = eng.plan(reqs)
        assert [r.request_id for r in rejected] == [reqs[0].request_id]
        assert layouts[0].num_requests == 1

    def test_serve_accounts_padding(self, batch):
        eng = NaiveEngine(batch)
        result = eng.serve(make_requests([10, 2], start_id=0))
        assert result.num_served == 2
        assert result.stats.useful_tokens == 12
        assert result.stats.padded_tokens == 2 * 10 - 12
        assert result.latency > 0

    def test_serve_empty(self, batch):
        assert NaiveEngine(batch).serve([]).num_served == 0


class TestTurboEngine:
    def test_groups_are_length_sorted(self, batch):
        eng = TurboEngine(batch)
        reqs = make_requests([19, 2, 18, 3], start_id=0)
        layouts, _ = eng.plan(reqs)
        widths = [l.effective_width for l in layouts]
        assert widths == sorted(widths)
        for layout in layouts:
            assert all(row.num_requests == 1 for row in layout.rows)

    def test_splits_bimodal_lengths(self):
        from repro.engine.cost_model import GPUCostModel

        batch = BatchConfig(num_rows=64, row_length=100)
        # With small per-batch overheads (a fast GPU), the DP must split
        # the bimodal mix rather than pad the shorts to 95 tokens.
        cheap = GPUCostModel.calibrated().with_(
            fixed_per_batch=1e-3, attn_floor=1e-3
        )
        eng = TurboEngine(batch, cost_model=cheap)
        reqs = make_requests([3] * 30 + [95] * 30, start_id=0)
        layouts, _ = eng.plan(reqs)
        assert len(layouts) >= 2
        widths = [l.effective_width for l in layouts]
        assert widths[0] < widths[-1]

    def test_turbo_no_worse_than_naive_cost(self, batch):
        reqs = make_requests([2, 2, 2, 18], start_id=0)
        naive = NaiveEngine(batch).serve(list(reqs))
        turbo = TurboEngine(batch).serve(list(reqs))
        assert turbo.latency <= naive.latency + 1e-12
        assert turbo.num_served == naive.num_served == 4


class TestConcatEngine:
    def test_single_layout_with_concatenation(self, batch):
        eng = ConcatEngine(batch)
        reqs = make_requests([8, 8, 8, 4], start_id=0)
        layouts, rejected = eng.plan(reqs)
        assert len(layouts) == 1
        assert not rejected
        assert layouts[0].num_requests == 4
        assert any(row.num_requests > 1 for row in layouts[0].rows)

    def test_overflow_returned_not_dropped(self, batch):
        eng = ConcatEngine(batch)
        reqs = make_requests([20] * 5, start_id=0)  # capacity is 4 rows
        result = eng.serve(reqs)
        assert result.num_served == 4
        assert len(result.rejected) == 1

    def test_unknown_packing_rejected(self, batch):
        with pytest.raises(ValueError, match="packing"):
            ConcatEngine(batch, packing="magic")

    def test_concat_beats_naive_throughput_on_short_requests(self):
        batch = BatchConfig(num_rows=8, row_length=100)
        reqs = make_requests([5] * 100, start_id=0)
        naive = NaiveEngine(batch).serve(list(reqs))
        concat = ConcatEngine(batch).serve(list(reqs))
        assert concat.num_served == 100
        assert concat.throughput > naive.throughput


class TestSlottedEngine:
    def test_fixed_slot_count(self):
        batch = BatchConfig(num_rows=2, row_length=20)
        eng = SlottedConcatEngine(batch, num_slots=4)
        assert eng.slot_size == 5
        layouts, _ = eng.plan(make_requests([5, 5, 5], start_id=0))
        assert layouts[0].scheme == "slotted"
        assert len(layouts[0].rows[0].slots) == 4

    def test_scheduler_slot_size_hook(self):
        batch = BatchConfig(num_rows=2, row_length=20)
        eng = SlottedConcatEngine(batch)
        eng.set_slot_size(10)
        assert eng.slot_size == 10

    def test_hook_conflicts_with_fixed(self):
        batch = BatchConfig(num_rows=2, row_length=20)
        eng = SlottedConcatEngine(batch, num_slots=2)
        with pytest.raises(ValueError, match="fixed"):
            eng.set_slot_size(5)

    def test_invalid_slot_size(self):
        batch = BatchConfig(num_rows=2, row_length=20)
        eng = SlottedConcatEngine(batch)
        with pytest.raises(ValueError):
            eng.set_slot_size(0)
        with pytest.raises(ValueError):
            eng.set_slot_size(21)

    def test_default_degenerates_to_pure(self):
        batch = BatchConfig(num_rows=2, row_length=20)
        eng = SlottedConcatEngine(batch)
        assert eng.slot_size == 20

    def test_requests_longer_than_slot_rejected(self):
        batch = BatchConfig(num_rows=2, row_length=20)
        eng = SlottedConcatEngine(batch, num_slots=4)  # slot size 5
        result = eng.serve(make_requests([6, 3], start_id=0))
        assert result.num_served == 1
        assert len(result.rejected) == 1

    def test_slotted_faster_than_pure_on_full_batch(self):
        # Compute-bound regime (cf. Fig. 14): batch 32, row length 400.
        batch = BatchConfig(num_rows=32, row_length=400)
        reqs = make_requests([100] * 128, start_id=0)
        pure = ConcatEngine(batch).serve(list(reqs))
        slotted = SlottedConcatEngine(batch, num_slots=4).serve(list(reqs))
        assert slotted.num_served == pure.num_served == 128
        assert slotted.latency < pure.latency


class TestMeasuredMode:
    def test_measured_mode_runs_real_model(self):
        batch = BatchConfig(num_rows=2, row_length=16)
        eng = ConcatEngine(
            batch, mode=EngineMode.MEASURED, model_config=ModelConfig.tiny()
        )
        reqs = eng.materialize_tokens(make_requests([4, 6, 3], start_id=0))
        result = eng.serve(reqs)
        assert result.num_served == 3
        assert result.latency > 0

    @pytest.mark.parametrize("slotted", [False, True])
    def test_concat_engines_serve_and_time_a_partly_empty_batch(self, slotted):
        """Measured mode drives encode_layout + greedy_decode on a layout
        with more rows than the requests fill."""
        batch = BatchConfig(num_rows=4, row_length=16)
        common = dict(mode=EngineMode.MEASURED, model_config=ModelConfig.tiny())
        eng = (
            SlottedConcatEngine(batch, num_slots=2, **common)
            if slotted
            else ConcatEngine(batch, **common)
        )
        reqs = eng.materialize_tokens(make_requests([4, 6, 3, 8, 2], start_id=0))
        result = eng.serve(reqs)
        assert result.num_served == 5 and not result.rejected
        assert result.latency > 0
        assert any(not row.segments for row in result.layouts[0].rows)

    def test_materialize_preserves_existing_tokens(self):
        batch = BatchConfig(num_rows=2, row_length=16)
        eng = ConcatEngine(batch)
        req = make_requests([3], start_id=0)[0].with_tokens([5, 6, 7])
        out = eng.materialize_tokens([req])
        assert out[0].tokens == (5, 6, 7)
