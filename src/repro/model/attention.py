"""Multi-head attention with arbitrary additive masks.

The head dimension is handled by reshape/transpose (``split_heads`` /
``merge_heads``); the per-head computation delegates to the kernels in
:mod:`repro.core.concat_attention`, so the *same* code path serves
vanilla, pure-ConcatBatching (block-diagonal mask) and slotted attention.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.concat_attention import att_cb_s, attention
from repro.model.functional import linear
from repro.model.params import AttentionParams

__all__ = ["split_heads", "merge_heads", "multi_head_attention", "multi_head_attention_slotted"]


def split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """``(B, W, d) -> (B, H, W, d/H)``."""
    b, w, d = x.shape
    if d % num_heads:
        raise ValueError(f"d={d} not divisible by num_heads={num_heads}")
    return np.ascontiguousarray(
        x.reshape(b, w, num_heads, d // num_heads).transpose(0, 2, 1, 3)
    )


def merge_heads(x: np.ndarray) -> np.ndarray:
    """``(B, H, W, d/H) -> (B, W, d)``."""
    b, h, w, dh = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(b, w, h * dh)


def _project_attend(
    params: AttentionParams,
    num_heads: int,
    query_input: np.ndarray,
    kv: np.ndarray,
    kernel: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Q/K/V projection → per-head ``kernel(q, k, v)`` → output projection.

    Self-attention projects Q, K and V in one linear through the fused
    :attr:`~repro.model.params.AttentionParams.qkv`; cross-attention
    projects Q from the queries and K, V together from ``kv``.
    """
    w, b = params.qkv
    d = w.shape[0]
    if kv is query_input:
        q, k, v = np.split(linear(query_input, w, b), 3, axis=-1)
    else:
        q = linear(query_input, w[:, :d], b[:d])
        k, v = np.split(linear(kv, w[:, d:], b[d:]), 2, axis=-1)
    q, k, v = (split_heads(a, num_heads) for a in (q, k, v))
    return linear(merge_heads(kernel(q, k, v)), params.w_o, params.b_o)


def multi_head_attention(
    params: AttentionParams,
    num_heads: int,
    query_input: np.ndarray,
    key_value_input: Optional[np.ndarray] = None,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Standard multi-head attention.

    ``mask`` is additive with shape ``(B, Wq, Wk)`` (broadcast over heads)
    or anything broadcastable to ``(B, H, Wq, Wk)``.  Self-attention when
    ``key_value_input`` is omitted; cross-attention otherwise.
    """
    kv = query_input if key_value_input is None else key_value_input
    m = None
    if mask is not None:
        m = mask[:, None, :, :] if mask.ndim == 3 else mask
    return _project_attend(
        params, num_heads, query_input, kv,
        lambda q, k, v: attention(q, k, v, mask=m),
    )


def multi_head_attention_slotted(
    params: AttentionParams,
    num_heads: int,
    x: np.ndarray,
    slot_spans: Sequence[tuple[int, int]],
    slot_masks: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> np.ndarray:
    """Slot-wise multi-head self-attention (Eq. 8 lifted to multi-head).

    ``slot_masks[i]`` — if given — is the within-slot additive mask of
    slot ``i`` with shape ``(B, z_i, z_i)``; it is broadcast over heads.
    """
    masks = None
    if slot_masks is not None:
        masks = [
            None if m is None else m[:, None, :, :] for m in slot_masks
        ]
    return _project_attend(
        params, num_heads, x, x,
        lambda q, k, v: att_cb_s(q, k, v, slot_spans, masks),
    )
