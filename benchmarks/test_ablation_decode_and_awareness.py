"""Ablations: KV-cached decoding, encoder attention kernels and concat-awareness.

- ``incremental_decode_ablation`` times the real NumPy model with and
  without KV caches — the cached path must win and widen with decode
  length (it avoids the O(steps²) recompute).
- ``attention_kernel_ablation`` encodes one packed batch under Eq. 5
  full-width, Eq. 8 slotted and the packed per-segment kernel — the
  packed one computes the fewest scores and must be the fastest.
- ``concat_aware_ablation`` decomposes DAS's Fig. 15 advantage: most of
  it comes from *concat-awareness* (filling rows), which classic
  schedulers lack; with awareness granted, SJF's pure-utility ordering
  is competitive — DAS adds the deadline guarantee on top.
"""

from repro.experiments.ablations import (
    attention_kernel_ablation,
    concat_aware_ablation,
    incremental_decode_ablation,
)
from repro.experiments.tables import format_series_table


def test_ablation_incremental_decode(benchmark, save_table):
    out = benchmark.pedantic(
        lambda: incremental_decode_ablation((4, 8, 16, 32)),
        rounds=1,
        iterations=1,
    )
    save_table(
        "ablation_incremental_decode",
        format_series_table(out, "Ablation — KV-cached vs recompute decoding"),
    )
    speedups = out["speedup"]
    # KV caching wins at longer decodes, and the advantage grows.
    assert speedups[-1] > 1.5
    assert speedups[-1] > speedups[0]


def test_ablation_attention_kernel(benchmark, save_table):
    out = benchmark.pedantic(attention_kernel_ablation, rounds=1, iterations=1)
    save_table(
        "ablation_attention_kernel",
        format_series_table(out, "Ablation — encoder self-attention kernels"),
    )
    full, slotted, packed = out["score_elements"]
    assert packed < slotted < full
    ms = dict(zip(out["kernel"], out["encode_ms"]))
    assert ms["packed per-segment"] < ms["Eq. 8 slotted"] < ms["Eq. 5 full-width"]


def test_ablation_concat_awareness(benchmark, save_table):
    out = benchmark.pedantic(
        lambda: concat_aware_ablation(seeds=(0, 1)), rounds=1, iterations=1
    )
    save_table(
        "ablation_concat_aware",
        format_series_table(out, "Ablation — concat-awareness decomposition"),
    )
    util = dict(zip(out["scheduler"], out["utility"]))
    # Concat-awareness is worth several× on its own ...
    assert util["SJF concat-aware"] > 3 * util["SJF classic"]
    # ... and DAS is competitive with the awareness-granted SJF (its
    # extra value is the deadline guarantee, not raw utility).
    assert util["DAS (concat-aware)"] > 0.9 * util["SJF concat-aware"]
