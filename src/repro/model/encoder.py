"""Transformer encoder stack with pluggable attention masks.

One encoder layer = self-attention + residual + LayerNorm, then FFN +
residual + LayerNorm (post-norm, as in the original architecture the
paper's Fig. 2 depicts).  The self-attention mask is supplied by the
caller so the same stack serves the padded batching schemes:

- NaiveBatching / TurboBatching: padding-key mask,
- pure ConcatBatching, paper-literal: block-diagonal mask (Eq. 6),
- slotted ConcatBatching: slot spans + within-slot masks (Eq. 8).

:func:`encode_packed` is the stack ConcatBatching runs in production: it
takes the useful tokens only, as one ``(T, d)`` array, and attends within
each segment, so it computes ``Σℓ²`` scores where Eq. 5 computes ``W²``
per row, builds no mask and never touches a padding position.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.concat_attention import attention
from repro.model.attention import (
    multi_head_attention,
    multi_head_attention_slotted,
)
from repro.model.feedforward import feed_forward
from repro.model.functional import add_norm, linear
from repro.model.params import EncoderLayerParams

__all__ = ["encoder_layer", "encoder_layer_slotted", "encode", "encode_packed"]


def _residual_ffn(
    params: EncoderLayerParams, x: np.ndarray, attn: np.ndarray
) -> np.ndarray:
    """The layer after its self-attention: residual + norm, FFN, residual + norm.

    ``attn`` is the fresh attention output; the residual sum overwrites it.
    """
    x = add_norm(x, attn, params.norm1.gamma, params.norm1.beta)
    return add_norm(x, feed_forward(params.ffn, x), params.norm2.gamma, params.norm2.beta)


def encoder_layer(
    params: EncoderLayerParams,
    num_heads: int,
    x: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    attn = multi_head_attention(params.self_attn, num_heads, x, mask=mask)
    return _residual_ffn(params, x, attn)


def encoder_layer_slotted(
    params: EncoderLayerParams,
    num_heads: int,
    x: np.ndarray,
    slot_spans: Sequence[tuple[int, int]],
    slot_masks: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> np.ndarray:
    attn = multi_head_attention_slotted(
        params.self_attn, num_heads, x, slot_spans, slot_masks
    )
    return _residual_ffn(params, x, attn)


def encode(
    layers: Sequence[EncoderLayerParams],
    num_heads: int,
    x: np.ndarray,
    mask: Optional[np.ndarray] = None,
    *,
    slot_spans: Optional[Sequence[tuple[int, int]]] = None,
    slot_masks: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> np.ndarray:
    """Run the full encoder stack.

    If ``slot_spans`` is given, every layer's self-attention runs slot-wise
    (slotted ConcatBatching); otherwise the additive ``mask`` is used.
    """
    h = x
    for layer in layers:
        if slot_spans is not None:
            h = encoder_layer_slotted(layer, num_heads, h, slot_spans, slot_masks)
        else:
            h = encoder_layer(layer, num_heads, h, mask)
    return h


def encode_packed(
    layers: Sequence[EncoderLayerParams],
    num_heads: int,
    x: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Run the encoder stack over segments packed back to back.

    ``x`` is ``(T, d)``: segment ``i`` owns the next ``lengths[i]`` rows.
    Linears, LayerNorm and FFN are position-wise and run on ``(T, d)``;
    a layer projects Q, K and V in one ``(T, 3d)`` linear through the
    fused weight of :attr:`~repro.model.params.AttentionParams.qkv`.
    Self-attention runs once per run of equal-length segments, as a
    maskless ``(n, H, ℓ, ℓ)`` batched matmul over the run's contiguous
    slice of that projection.  Any segment order is correct; sorted by
    length, every distinct length is one matmul.
    """
    lengths = np.asarray(lengths)
    bounds = [0, *(np.flatnonzero(np.diff(lengths)) + 1).tolist(), len(lengths)]
    offsets = np.concatenate(([0], np.cumsum(lengths))).tolist()
    # (first token, end token, segments, segment length) of each run.
    runs = [
        (offsets[i], offsets[j], j - i, int(lengths[i]))
        for i, j in zip(bounds, bounds[1:])
        if i < j
    ]
    h = x
    for layer in layers:
        p = layer.self_attn
        qkv = linear(h, *p.qkv)
        ctx = np.empty((len(h), qkv.shape[1] // 3), dtype=qkv.dtype)
        for a, b, n, length in runs:
            # (3, n, H, ℓ, d/H): Q, K and V of the run's segments.
            qh, kh, vh = qkv[a:b].reshape(n, length, 3, num_heads, -1).transpose(
                2, 0, 3, 1, 4
            )
            ctx[a:b] = attention(qh, kh, vh).transpose(0, 2, 1, 3).reshape(b - a, -1)
        h = _residual_ffn(layer, h, linear(ctx, p.w_o, p.b_o))
    return h
