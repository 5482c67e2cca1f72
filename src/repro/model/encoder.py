"""Transformer encoder stack with pluggable attention masks.

One encoder layer = self-attention + residual + LayerNorm, then FFN +
residual + LayerNorm (post-norm, as in the original architecture the
paper's Fig. 2 depicts).  The self-attention mask is supplied by the
caller so the same stack serves all batching schemes:

- NaiveBatching / TurboBatching: padding-key mask,
- pure ConcatBatching: block-diagonal mask (Eq. 6),
- slotted ConcatBatching: slot spans + within-slot masks (Eq. 8).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.model.attention import (
    multi_head_attention,
    multi_head_attention_slotted,
)
from repro.model.feedforward import feed_forward
from repro.model.functional import layer_norm
from repro.model.params import EncoderLayerParams

__all__ = ["encoder_layer", "encoder_layer_slotted", "encode"]


def _residual_ffn(
    params: EncoderLayerParams, x: np.ndarray, attn: np.ndarray
) -> np.ndarray:
    """The layer after its self-attention: residual + norm, FFN, residual + norm."""
    x = layer_norm(x + attn, params.norm1.gamma, params.norm1.beta)
    ffn = feed_forward(params.ffn, x)
    return layer_norm(x + ffn, params.norm2.gamma, params.norm2.beta)


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
