"""Tests for bursty workloads and layout validation."""

import pytest

from repro.core.layout import BatchLayout
from repro.core.packing import pack_first_fit
from repro.core.slotting import pack_into_slots
from repro.core.validation import validate_layout
from repro.types import Request, make_requests
from repro.workload.burst import BurstyWorkload


class TestBurstyWorkload:
    def test_generates_within_horizon(self):
        wl = BurstyWorkload(rate=100.0, horizon=4.0, seed=1)
        reqs = wl.generate()
        assert reqs
        assert all(0 <= r.arrival < 4.0 for r in reqs)
        arr = [r.arrival for r in reqs]
        assert arr == sorted(arr)

    def test_long_run_rate_near_nominal(self):
        wl = BurstyWorkload(rate=200.0, horizon=60.0, seed=0)
        n = len(wl.generate())
        # Normalised on/off mixing keeps the long-run mean near `rate`;
        # state-sequence randomness still leaves sizable variance.
        assert 0.6 * 200 * 60 < n < 1.6 * 200 * 60

    def test_burstier_than_poisson(self):
        from repro.workload.generator import WorkloadGenerator

        bursty = BurstyWorkload(rate=300.0, burst_factor=6.0, horizon=10.0, seed=2)
        smooth = WorkloadGenerator(rate=300.0, horizon=10.0, seed=2)
        b_reqs = bursty.generate()
        s_reqs = smooth.generate()
        b_idx = bursty.burstiness_index(b_reqs)
        s_idx = bursty.burstiness_index(s_reqs)
        assert b_idx > s_idx * 1.5

    def test_deterministic(self):
        a = BurstyWorkload(rate=50.0, horizon=3.0, seed=7).generate()
        b = BurstyWorkload(rate=50.0, horizon=3.0, seed=7).generate()
        assert [(r.arrival, r.length) for r in a] == [
            (r.arrival, r.length) for r in b
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstyWorkload(rate=0.0)
        with pytest.raises(ValueError):
            BurstyWorkload(burst_factor=0.5)
        with pytest.raises(ValueError):
            BurstyWorkload(mean_state_duration=0.0)

    def test_burstiness_index_empty(self):
        wl = BurstyWorkload()
        assert wl.burstiness_index([]) == 0.0


class TestValidateLayout:
    def test_good_concat_layout(self):
        reqs = make_requests([4, 3, 5, 2], start_id=0)
        layout = pack_first_fit(reqs, num_rows=2, row_length=10).layout
        report = validate_layout(layout)
        assert report.ok
        assert "att_cb ≡ per-request" in report.checks
        report.raise_if_failed()

    def test_good_slotted_layout(self):
        reqs = make_requests([3, 4, 2, 4], start_id=0)
        layout = pack_into_slots(reqs, 2, 8, 4).layout
        report = validate_layout(layout)
        assert report.ok
        assert "att_cb_s ≡ att_cb" in report.checks

    def test_structural_failure_detected(self):
        layout = BatchLayout(num_rows=1, row_length=10)
        layout.rows[0].add(Request(request_id=0, length=4))
        layout.rows[0].add(Request(request_id=0, length=4))  # duplicate id
        report = validate_layout(layout)
        assert not report.ok
        with pytest.raises(AssertionError, match="validation failed"):
            report.raise_if_failed()

    def test_empty_layout_flagged(self):
        layout = BatchLayout(num_rows=1, row_length=10)
        report = validate_layout(layout)
        assert not report.ok

    def test_model_check(self, tiny_model, tokenized_requests):
        reqs = tokenized_requests([4, 6, 3])
        layout = pack_first_fit(reqs, num_rows=1, row_length=16).layout
        report = validate_layout(layout, model=tiny_model)
        assert report.ok
        assert "model concat ≡ isolated" in report.checks

    def test_model_check_requires_tokens(self, tiny_model):
        reqs = make_requests([4, 3], start_id=0)
        layout = pack_first_fit(reqs, num_rows=1, row_length=8).layout
        report = validate_layout(layout, model=tiny_model)
        assert not report.ok
