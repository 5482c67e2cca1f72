"""Tests for shared engine plumbing (BatchResult, modes, repr)."""

import pytest

from repro.config import BatchConfig, ModelConfig
from repro.engine.base import BatchResult, EngineMode
from repro.engine.concat import ConcatEngine
from repro.engine.slotted import SlottedConcatEngine
from repro.types import make_requests


class TestBatchResult:
    def test_empty_defaults(self):
        r = BatchResult()
        assert r.num_served == 0
        assert r.throughput == 0.0

    def test_throughput(self):
        r = BatchResult(served=make_requests([3, 4], start_id=0), latency=2.0)
        assert r.throughput == pytest.approx(1.0)

    def test_zero_latency_throughput_is_zero(self):
        r = BatchResult(served=make_requests([3], start_id=0), latency=0.0)
        assert r.throughput == 0.0


class TestEngineInfrastructure:
    def test_repr_mentions_geometry(self):
        eng = ConcatEngine(BatchConfig(num_rows=8, row_length=64))
        assert "B=8" in repr(eng)
        assert "L=64" in repr(eng)
        assert "cost" in repr(eng)

    def test_mode_enum_values(self):
        assert EngineMode.COST.value == "cost"
        assert EngineMode.MEASURED.value == "measured"

    def test_serve_accumulates_stats_across_layouts(self):
        # Naive engine splits >B requests into several layouts; stats sum.
        from repro.engine.naive import NaiveEngine

        batch = BatchConfig(num_rows=2, row_length=20)
        eng = NaiveEngine(batch)
        result = eng.serve(make_requests([5, 10, 3, 7, 2], start_id=0))
        assert result.stats.num_requests == 5
        assert result.stats.useful_tokens == 27
        assert result.stats.rows == 5
        assert len(result.layouts) == 3

    def test_measured_mode_slotted_engine(self):
        """Slotted engine in measured mode serves a slotted layout end
        to end (on the packed per-segment stack)."""
        batch = BatchConfig(num_rows=2, row_length=16)
        eng = SlottedConcatEngine(
            batch,
            num_slots=4,
            mode=EngineMode.MEASURED,
            model_config=ModelConfig.tiny(),
        )
        reqs = eng.materialize_tokens(make_requests([4, 3, 4, 2], start_id=0))
        result = eng.serve(reqs)
        assert result.num_served == 4
        assert result.latency > 0

    @pytest.mark.parametrize("scheme", ["naive", "turbo", "concat", "slotted"])
    def test_measured_engines_return_their_tokens(self, scheme):
        """MEASURED mode hands back what it decoded: per served request,
        the tokens greedy_decode gives for the executed layout."""
        from repro.engine.naive import NaiveEngine
        from repro.engine.turbo import TurboEngine

        batch = BatchConfig(num_rows=3, row_length=16)
        kw = dict(mode=EngineMode.MEASURED, model_config=ModelConfig.tiny())
        eng = {
            "naive": lambda: NaiveEngine(batch, **kw),
            "turbo": lambda: TurboEngine(batch, **kw),
            "concat": lambda: ConcatEngine(batch, **kw),
            "slotted": lambda: SlottedConcatEngine(batch, num_slots=2, **kw),
        }[scheme]()
        reqs = eng.materialize_tokens(make_requests([4, 7, 3, 5, 2, 6], start_id=0))
        result = eng.serve(reqs)
        assert result.num_served > 0
        want = {}
        for layout in result.layouts:
            want.update(eng.model.greedy_decode(layout, 4).outputs)
        assert result.outputs == want
        assert set(want) == {r.request_id for r in result.served}

    def test_cost_mode_returns_no_tokens(self):
        result = ConcatEngine(BatchConfig(num_rows=2, row_length=16)).serve(
            make_requests([4, 3], start_id=0)
        )
        assert result.num_served == 2 and result.outputs is None

    def test_default_cost_model_is_calibrated(self):
        from repro.engine.cost_model import GPUCostModel

        eng = ConcatEngine(BatchConfig(num_rows=2, row_length=16))
        assert eng.cost_model == GPUCostModel.calibrated()

    def test_stats_row_width_tracks_widest_layout(self):
        from repro.engine.turbo import TurboEngine

        batch = BatchConfig(num_rows=4, row_length=50)
        result = TurboEngine(batch).serve(make_requests([5, 40], start_id=0))
        assert result.stats.row_width == 40
