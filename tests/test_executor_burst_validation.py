"""Tests for bursty workloads."""

import pytest

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

