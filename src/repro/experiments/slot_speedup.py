"""Figs. 13–14: speedup of slotted over pure ConcatBatching.

The paper fills batches of row length 400 (batch size 10 for Fig. 13, 32
for Fig. 14) and measures average batch inference time with 1, 2, 4, 5,
7, 10 and 20 slots; 1 slot *is* pure ConcatBatching (speedup 1 by
definition).

Two modes:

- ``mode="cost"`` (default) — latency from the calibrated GPU cost model
  (paper-scale reproduction),
- ``mode="measured"`` — actually executes the tiny NumPy model and
  wall-clock times Eq. 8 ``att_cb_s`` at each slot count; one slot is
  Eq. 5 full-width under the Eq. 6 mask, so this stays the measured
  Eq. 5 → Eq. 8 speedup the paper plots.  It is not the kernel
  ``ConcatEngine`` runs (that is the packed per-segment encoder, which
  computes no off-diagonal block to begin with).  CPU BLAS has no
  occupancy floor, so the measured curve keeps growing with slot count
  — kept as an ablation.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.config import BatchConfig, ModelConfig
from repro.core.slotting import pack_into_slots, slot_size_fixed_count
from repro.engine.cost_model import GPUCostModel
from repro.model.seq2seq import Seq2SeqModel
from repro.types import Request, make_requests

__all__ = ["PAPER_SLOT_COUNTS", "run_fig13_fig14_slot_speedup", "slotted_batch_time"]

PAPER_SLOT_COUNTS = (1, 2, 4, 5, 7, 10, 20)


def _full_row_requests(
    num_rows: int, row_length: int, num_slots: int, seed: int = 0
) -> list[Request]:
    """Requests that exactly fill every slot of every row.

    This mirrors the microbenchmark's intent: the batch is full either
    way, only the slot structure differs.
    """
    z = slot_size_fixed_count(num_slots, row_length)
    lengths = []
    per_row = []
    start = 0
    while start < row_length:
        size = min(z, row_length - start)
        per_row.append(size)
        start += size
    for _ in range(num_rows):
        lengths.extend(per_row)
    return make_requests(lengths, start_id=seed * 100000)


def slotted_batch_time(
    num_rows: int,
    row_length: int,
    num_slots: int,
    cost_model: GPUCostModel,
) -> float:
    """Cost-model inference time of a full batch divided into slots."""
    reqs = _full_row_requests(num_rows, row_length, num_slots)
    res = pack_into_slots(
        reqs, num_rows, row_length, slot_size_fixed_count(num_slots, row_length)
    )
    if res.rejected:
        raise RuntimeError("slot-speedup workload should always fit")
    return cost_model.layout_time(res.layout)


def _measured_batch_time(
    num_rows: int, row_length: int, num_slots: int, repeats: int = 3
) -> float:
    cfg = ModelConfig.tiny(max_len=row_length + 1)
    model = Seq2SeqModel(cfg, seed=0)
    rng = np.random.default_rng(0)
    reqs = [
        r.with_tokens(rng.integers(4, cfg.vocab_size, size=r.length))
        for r in _full_row_requests(num_rows, row_length, num_slots)
    ]
    res = pack_into_slots(
        reqs, num_rows, row_length, slot_size_fixed_count(num_slots, row_length)
    )
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        model.encode_layout(res.layout, slotted=True)
        best = min(best, time.perf_counter() - t0)
    return best


def run_fig13_fig14_slot_speedup(
    batch_size: int,
    row_length: int = 400,
    slot_counts: Sequence[int] = PAPER_SLOT_COUNTS,
    *,
    mode: str = "cost",
    cost_model: Optional[GPUCostModel] = None,
) -> dict[str, list[float]]:
    """Fig. 13 (batch_size=10) / Fig. 14 (batch_size=32) series."""
    cm = cost_model or GPUCostModel.calibrated()
    times: list[float] = []
    for n in slot_counts:
        if mode == "cost":
            times.append(slotted_batch_time(batch_size, row_length, n, cm))
        elif mode == "measured":
            times.append(_measured_batch_time(batch_size, min(row_length, 128), n))
        else:
            raise ValueError(f"unknown mode {mode!r}")
    base = times[slot_counts.index(1)] if 1 in slot_counts else times[0]
    return {
        "slots": list(slot_counts),
        "batch_time": times,
        "speedup": [base / t for t in times],
    }
