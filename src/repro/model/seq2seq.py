"""The full Seq2Seq encoder-decoder model over batch layouts.

:class:`Seq2SeqModel` is the user-facing model object.  It consumes
:class:`~repro.core.layout.BatchLayout` objects — the common currency of
all batching schemes — and internally derives token matrices, separate
positional encodings and the correct masks, so callers never touch index
math.

Key entry points:

- :meth:`Seq2SeqModel.encode_layout` — run the encoder over a layout
  (optionally slot-wise),
- :meth:`Seq2SeqModel.greedy_decode` — autoregressive greedy decoding of
  every request in a layout, with per-request completion steps recorded
  (this is what early memory cleaning keys off),
- :meth:`Seq2SeqModel.encode_single` / :meth:`greedy_decode_single` —
  per-request reference paths used to validate ConcatBatching
  correctness.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.config import ModelConfig
from repro.core.layout import BatchLayout, SegmentIndex
from repro.core.masks import block_diagonal_mask, padding_key_mask
from repro.core.positional import sinusoidal_positional_encoding
from repro.model.encoder import encode, encode_packed
from repro.model.functional import linear
from repro.model.generation import GenerationResult, generate
from repro.model.params import Seq2SeqParams, init_seq2seq
from repro.types import Request

__all__ = ["Seq2SeqModel", "GenerationResult"]

# One request per row, padded to the widest: the baselines ConcatBatching
# is measured against, so their padding is computed, not skipped.
PADDED_SCHEMES = ("naive", "turbo")


class Seq2SeqModel:
    """Encoder-decoder transformer supporting all TCB batching schemes."""

    def __init__(self, config: ModelConfig, seed: int = 0, params: Optional[Seq2SeqParams] = None):
        self.config = config
        self.params = params if params is not None else init_seq2seq(config, seed)

    # ------------------------------------------------------------------ #
    # Embedding
    # ------------------------------------------------------------------ #

    def embed(self, tokens: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Token embedding + sinusoidal PE gathered at ``positions``."""
        if tokens.shape != positions.shape:
            raise ValueError(
                f"tokens {tokens.shape} and positions {positions.shape} differ"
            )
        emb = self.params.embedding[tokens]
        pe = sinusoidal_positional_encoding(
            positions, self.config.d_model, self.params.pe_table
        )
        return emb + pe

    # ------------------------------------------------------------------ #
    # Encoder
    # ------------------------------------------------------------------ #

    def encode_layout(
        self,
        layout: BatchLayout,
        *,
        separate_pe: bool = True,
        concat_mask: bool = True,
        slotted: bool = False,
    ) -> np.ndarray:
        """Run the encoder over a batch layout; returns ``(B, W, d)``.

        Which kernel runs follows from what the layout says it is:

        - a concatenated layout (every scheme but the two below) goes
          through :meth:`encode_requests`, the packed stack that attends
          within segments only — ``Σℓ²`` scores, no mask, no padding
          token computed;
        - ``"naive"`` / ``"turbo"`` layouts run the dense padded stack:
          their padding is the baseline being measured;
        - ``slotted=True`` computes self-attention per slot (Eq. 8);
        - ``separate_pe=False`` / ``concat_mask=False`` deliberately
          reproduce the *wrong* default-framework behaviour on the dense
          stack (used by tests to show why TCB's customisations are
          necessary).

        Segment positions are exact under every kernel.  Padding
        positions come back as zeros from the packed stack and are
        unspecified under the dense ones (a row without any segment is
        zeros everywhere).  A request without token ids raises
        ``ValueError("request … has no tokens")``.
        """
        dense = (
            slotted
            or not (separate_pe and concat_mask)
            or layout.scheme in PADDED_SCHEMES
        )
        if not dense:
            index = layout.segment_index()
            memory = np.zeros(
                (layout.num_rows, layout.effective_width, self.config.d_model)
            )
            order = np.argsort(index.lengths, kind="stable")
            memory[index.coords(order)] = self.encode_requests(layout, index)
            return memory

        live = [k for k, row in enumerate(layout.rows) if row.segments]
        seg = layout.segment_id_matrix()[live]
        positions = (
            layout.position_matrix()
            if separate_pe
            else layout.naive_position_matrix()
        )
        tokens = layout.token_matrix(pad_token=self.config.pad_token)
        x = self.embed(tokens[live], positions[live])

        if slotted:
            spans_per_row = layout.slot_boundaries()
            spans = spans_per_row[0]
            if any(s != spans for s in spans_per_row):
                raise ValueError(
                    "slotted encoding requires identical slot spans per row"
                )
            # The batch tensor is trimmed to the effective width; clip the
            # slot spans accordingly and drop fully-padded trailing slots.
            w = seg.shape[1]
            spans = [(a, min(b, w)) for a, b in spans if a < w]
            slot_masks = [
                block_diagonal_mask(seg[:, a:b]) for (a, b) in spans
            ]
            out = encode(
                self.params.encoder_layers,
                self.config.num_heads,
                x,
                slot_spans=spans,
                slot_masks=slot_masks,
            )
        else:
            mask = block_diagonal_mask(seg) if concat_mask else padding_key_mask(seg)
            out = encode(self.params.encoder_layers, self.config.num_heads, x, mask)

        if len(live) == layout.num_rows:
            return out
        memory = np.zeros((layout.num_rows, *out.shape[1:]))
        memory[live] = out
        return memory

    def encode_requests(self, layout: BatchLayout, index: SegmentIndex) -> np.ndarray:
        """Encoder states of the useful tokens only, packed to ``(T, d)``.

        Requests come shortest first, ties in row-major order — the
        segments of ``index`` (``layout.segment_index()``) in the order
        ``np.argsort(index.lengths, kind="stable")``, so
        ``index.coords(order)`` places them in a ``(B, W, d)`` tensor.
        This is the order the decode loop groups requests in, and the
        order concatenated layouts are encoded in: their tokens are
        gathered with equal-length segments adjacent and positions
        restarting at 0 per segment, and run through
        :func:`~repro.model.encoder.encode_packed` without ever becoming
        a ``(B, W, d)`` tensor.  Padded schemes are encoded densely and
        packed.
        """
        order = np.argsort(index.lengths, kind="stable")
        if layout.scheme in PADDED_SCHEMES:
            return self.encode_layout(layout)[index.coords(order)]
        lengths = index.lengths[order]
        rows, cols = index.coords(order)
        positions = cols - np.repeat(index.starts[order], lengths)
        tokens = layout.token_matrix(pad_token=self.config.pad_token)[rows, cols]
        return encode_packed(
            self.params.encoder_layers,
            self.config.num_heads,
            self.embed(tokens, positions),
            lengths,
        )

    def encode_single(self, tokens: Sequence[int]) -> np.ndarray:
        """Reference path: encode one request alone (no padding, no concat)."""
        t = np.asarray(tokens, dtype=np.int64)[None, :]
        pos = np.arange(t.shape[1], dtype=np.int64)[None, :]
        x = self.embed(t, pos)
        return encode(self.params.encoder_layers, self.config.num_heads, x)

    # ------------------------------------------------------------------ #
    # Decoder / generation
    # ------------------------------------------------------------------ #

    def project_logits(self, h: np.ndarray) -> np.ndarray:
        assert self.params.out_proj is not None
        return linear(h, self.params.out_proj, self.params.out_bias)

    def greedy_decode(
        self,
        layout: BatchLayout,
        max_new_tokens: int = 16,
        *,
        memory: Optional[np.ndarray] = None,
    ) -> GenerationResult:
        """Greedy autoregressive decoding of all requests in a layout.

        Every request decodes up to ``max_new_tokens`` tokens and stops
        early at EOS; the same routine is exact for naive (one
        request/row) and concatenated layouts alike.  ``memory`` is the
        layout's encoder output if the caller already has it.  The loop
        itself is :func:`repro.model.generation.generate`.
        """
        return generate(self, layout, max_new_tokens, memory=memory)

    def greedy_decode_single(
        self, tokens: Sequence[int], max_new_tokens: int = 16
    ) -> list[int]:
        """Reference path: greedy-decode one request alone."""
        layout = BatchLayout.naive(
            [
                Request(
                    request_id=0,
                    length=len(tokens),
                    tokens=tuple(int(t) for t in tokens),
                )
            ]
        )
        res = self.greedy_decode(layout, max_new_tokens)
        return res.outputs[0]
