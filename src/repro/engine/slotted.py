"""Slotted ConcatBatching engine (paper §4.2, Algorithm 2's engine half).

Rows are divided into fixed-size slots; the paper computes
self-attention per slot (Eq. 8), and finished slots release their memory
early (§4.2.2 — see :class:`repro.engine.memory.GPUMemorySimulator`).
Under ``EngineMode.MEASURED`` a slotted layout runs the packed
per-segment stack, like a concatenated one: it gives the same states
without the slots' padding.  Eq. 8 itself is
``Seq2SeqModel.encode_layout(slotted=True)``, the ablation's arm.

The slot size is supplied per ``serve()`` call by the scheduler
(Algorithm 2 derives it from the utility-dominant set) or fixed at
construction for the Figs. 13–14 microbenchmarks.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.layout import BatchLayout
from repro.core.slotting import pack_into_slots, slot_size_fixed_count
from repro.engine.base import InferenceEngine
from repro.types import Request

__all__ = ["SlottedConcatEngine"]


class SlottedConcatEngine(InferenceEngine):
    name = "slotted"

    def __init__(self, *args, num_slots: Optional[int] = None, **kwargs):
        """``num_slots`` pins a fixed equal-slot division (microbenchmark
        mode); otherwise the slot size must come from the scheduler via
        :meth:`set_slot_size`."""
        super().__init__(*args, **kwargs)
        self._fixed_num_slots = num_slots
        self._slot_size: Optional[int] = None
        if num_slots is not None:
            self._slot_size = slot_size_fixed_count(
                num_slots, self.batch.row_length
            )

    def set_slot_size(self, slot_size: int) -> None:
        """Scheduler hook: Algorithm 2 line 4 decides the slot size."""
        if slot_size < 1 or slot_size > self.batch.row_length:
            raise ValueError(
                f"slot_size must be in [1, {self.batch.row_length}], got {slot_size}"
            )
        if self._fixed_num_slots is not None:
            raise ValueError("engine was constructed with a fixed slot count")
        self._slot_size = slot_size

    @property
    def slot_size(self) -> int:
        if self._slot_size is None:
            # Degenerate to pure ConcatBatching (single whole-row slot).
            return self.batch.row_length
        return self._slot_size

    def plan(
        self, requests: Sequence[Request]
    ) -> tuple[list[BatchLayout], list[Request]]:
        res = pack_into_slots(
            list(requests),
            self.batch.num_rows,
            self.batch.row_length,
            self.slot_size,
        )
        if not res.packed:
            return [], res.rejected
        return [res.layout], res.rejected
