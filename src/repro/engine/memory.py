"""GPU memory accounting with early cleaning (paper §4.2.2).

During inference, a batch and its intermediate tensors stay resident
until results are produced.  Because the decoder is auto-regressive,
requests finish at different steps; slotted ConcatBatching makes slots
separable tensors, so a finished slot's memory can be *released early*
and the next batch's loading can overlap the tail of the current batch.

This module simulates that accounting.  It does not try to model a real
allocator — it tracks resident bytes over decode steps and reports:

- peak resident bytes with and without early cleaning,
- byte-steps (∫ resident d(step)) — the quantity early cleaning reduces,
- how many bytes were available for next-batch overlap, per step.

Pure ConcatBatching cannot early-clean (requests inside a row are not
tensor-separable — §4.2.2), which the simulator enforces: only layouts
with slots release memory before the final step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.core.layout import BatchLayout

__all__ = ["MemoryReport", "GPUMemorySimulator"]

# Bytes resident per token position: embeddings + per-layer activations
# kept for the decoder pass.  A constant multiplier is enough — every
# scheme scales identically and only *relative* residency matters.
_BYTES_PER_TOKEN_UNIT = 4  # fp32


@dataclass
class MemoryReport:
    """Result of simulating one batch's memory lifetime."""

    peak_bytes: int
    final_step: int
    byte_steps: int
    # byte_steps if no early cleaning had happened (everything resident
    # until final_step).
    byte_steps_no_cleaning: int
    # Per-step bytes freed early (index = decode step, 1-based step s at
    # freed_per_step[s-1]).
    freed_per_step: list[int] = field(default_factory=list)

    @property
    def savings_ratio(self) -> float:
        """Fraction of byte-steps early cleaning removed (0 = none)."""
        if self.byte_steps_no_cleaning == 0:
            return 0.0
        return 1.0 - self.byte_steps / self.byte_steps_no_cleaning

    @property
    def overlap_bytes(self) -> int:
        """Bytes released before the batch finished (loadable early)."""
        return sum(self.freed_per_step)


class GPUMemorySimulator:
    """Simulates resident activation memory of one batch over decode steps."""

    def __init__(self, d_model: int, num_layers: int = 6):
        if d_model < 1 or num_layers < 1:
            raise ValueError("d_model and num_layers must be >= 1")
        self.bytes_per_token = _BYTES_PER_TOKEN_UNIT * d_model * num_layers

    def slot_bytes(self, slot_tokens: int) -> int:
        return slot_tokens * self.bytes_per_token

    def watermark_bytes(self, layout: BatchLayout) -> int:
        """Peak resident bytes while ``layout`` executes (no cleaning).

        Everything is resident at once at the start of the decode pass,
        so the watermark is independent of completion order — the
        per-batch memory annotation the tracing layer records.
        """
        total = 0
        slotted = layout.scheme == "slotted"
        row_bytes = self.slot_bytes(layout.effective_width)
        for row in layout.rows:
            if slotted and row.slots:
                total += sum(
                    self.slot_bytes(slot.size)
                    for slot in row.slots
                    if slot.segments
                )
            elif row.segments:
                total += row_bytes
        return total

    def simulate(
        self,
        layout: BatchLayout,
        completion_step: Mapping[int, int],
        *,
        early_cleaning: bool = True,
    ) -> MemoryReport:
        """Walk the decode steps of a finished generation.

        ``completion_step`` maps request_id → 1-based decode step at which
        that request finished (from
        :class:`repro.model.seq2seq.GenerationResult`).

        With early cleaning, a *slot* is freed at the step where its last
        request finishes; unslotted layouts are freed only at the end,
        matching §4.2.2's observation that concatenated rows cannot be
        split into removable tensors.
        """
        # Collect (unit_bytes, release_step) per memory unit.
        units: list[tuple[int, int]] = []
        final_step = max(completion_step.values(), default=1)
        for row in layout.rows:
            if layout.scheme == "slotted" and row.slots:
                for slot in row.slots:
                    if not slot.segments:
                        continue
                    step = max(
                        completion_step.get(s.request.request_id, final_step)
                        for s in slot.segments
                    )
                    units.append((self.slot_bytes(slot.size), step))
            else:
                if not row.segments:
                    continue
                # Whole row is one inseparable tensor.
                step = final_step
                units.append((self.slot_bytes(layout.effective_width), step))

        total = sum(b for b, _ in units)
        if not early_cleaning:
            units = [(b, final_step) for b, _ in units]

        freed = [0] * final_step
        byte_steps = 0
        for b, step in units:
            release = min(step, final_step)
            byte_steps += b * release
            if release < final_step:
                freed[release - 1] += b
        return MemoryReport(
            peak_bytes=total,
            final_step=final_step,
            byte_steps=byte_steps,
            byte_steps_no_cleaning=total * final_step,
            freed_per_step=freed,
        )
