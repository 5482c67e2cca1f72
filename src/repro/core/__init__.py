"""The paper's primary contribution: ConcatBatching primitives.

This package contains everything specific to *request concatenation*:

- :mod:`repro.core.layout` — segment/row/slot/batch layout descriptions and
  padding accounting,
- :mod:`repro.core.packing` — algorithms that pack variable-length requests
  into rows,
- :mod:`repro.core.slotting` — slot-size policies and slot-wise packing
  (slotted ConcatBatching, paper §4.2),
- :mod:`repro.core.masks` — block-diagonal additive attention masks (Eq. 6),
- :mod:`repro.core.positional` — separate positional encoding (§4.1.1),
- :mod:`repro.core.concat_attention` — the customized self-attention
  ``Att_CB`` (Eq. 5) and its slotted variant ``Att_CB_S`` (Eq. 8).
"""

from repro.core.layout import (
    BatchLayout,
    RowLayout,
    Segment,
    SegmentIndex,
    SlotLayout,
)
from repro.core.masks import (
    block_diagonal_mask,
    causal_block_mask,
    cross_attention_mask,
    layout_attention_mask,
)
from repro.core.positional import (
    separate_positions,
    sinusoidal_encoding,
    sinusoidal_positional_encoding,
)
from repro.core.packing import (
    PackingResult,
    pack_best_fit_decreasing,
    pack_first_fit,
    pack_in_order,
)
from repro.core.slotting import (
    SlottedPackingResult,
    divide_row_into_slots,
    pack_into_slots,
    slot_size_from_utility_dominant,
)
from repro.core.concat_attention import att_cb, att_cb_reference, att_cb_s

__all__ = [
    "Segment",
    "SegmentIndex",
    "RowLayout",
    "SlotLayout",
    "BatchLayout",
    "block_diagonal_mask",
    "causal_block_mask",
    "cross_attention_mask",
    "layout_attention_mask",
    "separate_positions",
    "sinusoidal_encoding",
    "sinusoidal_positional_encoding",
    "PackingResult",
    "pack_first_fit",
    "pack_best_fit_decreasing",
    "pack_in_order",
    "SlottedPackingResult",
    "slot_size_from_utility_dominant",
    "divide_row_into_slots",
    "pack_into_slots",
    "att_cb",
    "att_cb_reference",
    "att_cb_s",
]
