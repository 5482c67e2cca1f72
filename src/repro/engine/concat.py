"""Pure ConcatBatching engine (paper §4.1).

Packs the scheduler's selection into ``B`` rows of ``L`` tokens by
concatenation (in scheduler order — the order DAS constructed), executes
with attention confined to each request and separate positional encoding
(in measured mode: the packed per-segment encoder, which is Eq. 5 without
the off-diagonal blocks and the padding).  Requests that do not fit the
batch are *returned* as rejected so the serving loop can retry them next
slot rather than drop them.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.layout import BatchLayout
from repro.core.packing import pack_first_fit, pack_in_order
from repro.engine.base import InferenceEngine
from repro.types import Request

__all__ = ["ConcatEngine"]


class ConcatEngine(InferenceEngine):
    name = "concat"

    def __init__(self, *args, packing: str = "first_fit", **kwargs):
        super().__init__(*args, **kwargs)
        if packing not in ("first_fit", "in_order"):
            raise ValueError(f"unknown packing policy {packing!r}")
        self.packing = packing

    def plan(
        self, requests: Sequence[Request]
    ) -> tuple[list[BatchLayout], list[Request]]:
        packer = pack_first_fit if self.packing == "first_fit" else pack_in_order
        res = packer(
            list(requests), self.batch.num_rows, self.batch.row_length
        )
        if res.num_packed == 0:
            return [], res.rejected
        return [res.layout], res.rejected
