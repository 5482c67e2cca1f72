"""Tests for repro.analysis (curves and export)."""

import json

import pytest

from repro.analysis import (
    crossover_rate,
    max_gap,
    saturated_value,
    saturation_point,
)
from repro.experiments.tables import series_to_csv, series_to_json


class TestSaturation:
    def test_flat_curve_saturates_immediately(self):
        assert saturation_point([1, 2, 3], [5, 5, 5]) == 1

    def test_growing_then_flat(self):
        x = [40, 80, 120, 250, 1000]
        y = [10, 20, 40, 41, 42]
        assert saturation_point(x, y) == 120

    def test_always_growing_returns_last_or_none(self):
        x = [1, 2, 3]
        y = [1.0, 10.0, 100.0]
        # The last point trivially satisfies "never grows after" — the
        # detector returns it; interpretation is up to the caller.
        assert saturation_point(x, y, tolerance=0.01) == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            saturation_point([1], [1, 2])

    def test_single_point(self):
        assert saturation_point([1], [5]) is None

    def test_saturated_value(self):
        assert saturated_value([1, 2, 10, 10, 10]) == 10
        assert saturated_value([4], last_k=3) == 4
        with pytest.raises(ValueError):
            saturated_value([])


class TestGaps:
    def test_max_gap(self):
        assert max_gap([10, 30], [10, 10]) == 3.0

    def test_skips_zero_denominator(self):
        assert max_gap([10, 30], [0, 10]) == 3.0

    def test_all_zero_denominator(self):
        with pytest.raises(ValueError):
            max_gap([1], [0])

    def test_misaligned(self):
        with pytest.raises(ValueError):
            max_gap([1, 2], [1])


class TestCrossover:
    def test_leads_from_start(self):
        assert crossover_rate([1, 2], [5, 5], [1, 1]) == 1.0

    def test_never_leads(self):
        assert crossover_rate([1, 2], [1, 1], [5, 5]) is None

    def test_interpolated(self):
        # a-b goes from -1 at x=0 to +1 at x=2 → crossover at x=1.
        x = [0, 2]
        assert crossover_rate(x, [0, 2], [1, 1]) == pytest.approx(1.0)

    def test_misaligned(self):
        with pytest.raises(ValueError):
            crossover_rate([1], [1, 2], [1, 2])


class TestExport:
    def test_csv_roundtrip(self):
        text = series_to_csv({"rate": [40, 80], "TCB": [1.5, 2.5]})
        lines = text.strip().splitlines()
        assert lines[0] == "rate,TCB"
        assert lines[1] == "40,1.5"
        assert lines[2] == "80,2.5"

    def test_csv_empty(self):
        assert series_to_csv({}) == ""

    def test_json(self):
        text = series_to_json({"x": [1, 2]})
        assert json.loads(text) == {"x": [1, 2]}

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            series_to_csv({"a": [1], "b": [1, 2]})
        with pytest.raises(ValueError):
            series_to_json({"a": [1], "b": [1, 2]})
