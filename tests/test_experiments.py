"""Integration tests: every figure harness runs and matches paper shapes.

These are miniature versions of the benchmark sweeps (fewer seeds,
shorter horizons) asserting the *qualitative* results the paper reports
— who wins, in which direction the curves move — so that regressions in
any subsystem surface here.
"""

import pytest

from repro.experiments import (
    format_series_table,
    run_fig09_utility,
    run_fig10_throughput,
    run_fig11_fig12_fcfs,
    run_fig13_fig14_slot_speedup,
    run_fig15a_batch_size,
    run_fig15b_variance,
    run_fig15c_row_length,
    run_fig16_overhead,
)

FAST = dict(horizon=4.0, seeds=(0,))


@pytest.fixture(scope="module")
def fig10():
    return run_fig10_throughput(rates=(40, 250, 1000), **FAST)


class TestFig9And10:
    def test_utility_grows_with_rate(self):
        out = run_fig09_utility(rates=(40, 450), **FAST)
        for system in ("DAS-TNB", "DAS-TTB", "DAS-TCB"):
            assert out[system][1] > out[system][0]

    def test_tcb_wins_after_saturation(self, fig10):
        i = fig10["rate"].index(1000)
        assert fig10["DAS-TCB"][i] > fig10["DAS-TTB"][i]
        assert fig10["DAS-TCB"][i] > fig10["DAS-TNB"][i]

    def test_systems_comparable_under_light_load(self, fig10):
        i = fig10["rate"].index(40)
        tnb, tcb = fig10["DAS-TNB"][i], fig10["DAS-TCB"][i]
        assert abs(tnb - tcb) / max(tnb, tcb) < 0.25

    def test_saturated_gap_order_of_paper(self, fig10):
        """Paper: ~2.2× TCB/TNB after saturation; we accept 1.5–6×."""
        i = fig10["rate"].index(1000)
        ratio = fig10["DAS-TCB"][i] / fig10["DAS-TNB"][i]
        assert 1.5 < ratio < 6.0


class TestFig11And12:
    def test_fcfs_ordering_at_saturation(self):
        # Longer horizon: engine-latency differences need several slots
        # to accumulate into distinct served counts.
        lo = run_fig11_fig12_fcfs(spread=20, rates=(1000,), horizon=10.0, seeds=(0, 1))
        # TCB > TTB > TNB at saturation under FCFS (Fig. 11).
        assert lo["FCFS-TCB"][0] > lo["FCFS-TTB"][0] > lo["FCFS-TNB"][0]

    def test_variance_widens_tcb_lead_at_knee(self):
        """Fig. 11→12: TCB/TTB gap grows with length variance (paper:
        1.52×→1.72×).  The effect lives at the saturation knee — deep in
        overload TTB's sorter always finds similar lengths in the huge
        queue, so we measure at the knee rate (120 req/s)."""
        lo = run_fig11_fig12_fcfs(spread=20, rates=(120,), horizon=10.0, seeds=(0, 1))
        hi = run_fig11_fig12_fcfs(spread=100, rates=(120,), horizon=10.0, seeds=(0, 1))
        gap_lo = lo["FCFS-TCB"][0] / lo["FCFS-TTB"][0]
        gap_hi = hi["FCFS-TCB"][0] / hi["FCFS-TTB"][0]
        assert gap_hi > gap_lo


class TestFig13And14:
    def test_speedup_shapes(self):
        f13 = run_fig13_fig14_slot_speedup(10)
        f14 = run_fig13_fig14_slot_speedup(32)
        assert f13["speedup"][0] == pytest.approx(1.0)
        assert f14["speedup"][0] == pytest.approx(1.0)
        # Speedup grows with slots then plateaus; larger batch gains more.
        i7 = f14["slots"].index(7)
        assert f14["speedup"][i7] > 2.0
        assert f14["speedup"][i7] > f13["speedup"][i7]
        # Plateau: 20 slots is not much better than 7 (paper's finding).
        i20 = f14["slots"].index(20)
        assert f14["speedup"][i20] < f14["speedup"][i7] + 0.3

    def test_measured_mode_runs(self):
        out = run_fig13_fig14_slot_speedup(
            2, row_length=64, slot_counts=(1, 4), mode="measured"
        )
        assert len(out["speedup"]) == 2
        assert out["speedup"][0] == pytest.approx(1.0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run_fig13_fig14_slot_speedup(2, mode="magic")


class TestFig15:
    def test_das_wins_every_batch_size(self):
        out = run_fig15a_batch_size(batch_sizes=(5, 16), **FAST)
        for i in range(2):
            das = out["DAS-TCB"][i]
            assert das > out["SJF-TCB"][i]
            assert das > out["FCFS-TCB"][i]
            assert das > out["DEF-TCB"][i]

    def test_utility_grows_with_batch_size(self):
        out = run_fig15a_batch_size(batch_sizes=(5, 16), **FAST)
        assert out["DAS-TCB"][1] > out["DAS-TCB"][0]

    def test_das_wins_across_variance(self):
        out = run_fig15b_variance(spreads=(10, 100), **FAST)
        for i in range(2):
            assert out["DAS-TCB"][i] > out["SJF-TCB"][i]

    def test_das_wins_across_row_length(self):
        out = run_fig15c_row_length(row_lengths=(100, 300), **FAST)
        for i in range(2):
            assert out["DAS-TCB"][i] > out["SJF-TCB"][i]


class TestFig16:
    def test_overhead_small_and_growing(self):
        out = run_fig16_overhead(rates=(100, 400), **FAST)
        a, b = out["overhead_percent"]
        assert b > a  # more requests → more scheduling work
        assert b < 10.0  # paper: ~2% at 400 req/s; ours must stay small


class TestTableFormatting:
    def test_format_series_table(self):
        txt = format_series_table({"x": [1, 2], "y": [0.5, 1.25]}, "t")
        lines = txt.splitlines()
        assert lines[0] == "t"
        assert "x" in lines[1] and "y" in lines[1]
        assert "1.25" in txt

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            format_series_table({"x": [1], "y": [1, 2]})

    def test_empty(self):
        assert format_series_table({}, "title") == "title"

    def test_seed_means_sums_each_column_in_seed_order(self):
        from repro.experiments.tables import seed_means

        ran = []

        def point(x, seed):
            ran.append((x, seed))
            return {"v": x * 0.1 + seed}

        out = seed_means(
            [1, 2], (0, 1, 2), point, {"v": lambda c: c["v"], "n": lambda c: 1}
        )
        assert ran == [(x, s) for x in (1, 2) for s in (0, 1, 2)]
        assert out == {
            "v": [(0.0 + 0.1 + 1.1 + 2.1) / 3, (0.0 + 0.2 + 1.2 + 2.2) / 3],
            "n": [1.0, 1.0],
        }
