"""Additive attention masks for ConcatBatching (paper Eq. 6).

All masks here are *additive*: ``0.0`` where attention is allowed and
``-inf`` (we use a large negative constant, see :data:`NEG_INF`) where it
must be suppressed, so they can be added to the pre-softmax score matrix
``QKᵀ/√d`` exactly as in Eq. 5.

The builders are fully vectorised: a layout is first lowered to its
``segment_id_matrix`` (``(B, W)`` ints, ``-1`` for padding) and masks are
derived with broadcasting — no Python loops over token positions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.layout import BatchLayout

__all__ = [
    "NEG_INF",
    "additive_mask",
    "block_diagonal_mask",
    "causal_block_mask",
    "cross_attention_mask",
    "layout_attention_mask",
    "padding_key_mask",
]

# A finite stand-in for -inf: large enough that exp() underflows to exactly
# 0.0 in float32/float64 softmax, small enough to avoid inf-inf = nan when
# masks are composed by addition.
NEG_INF: float = -1.0e9


def additive_mask(allowed: np.ndarray) -> np.ndarray:
    """Lower a boolean *allowed* array to the canonical additive mask.

    The one sanctioned way (TCB001, ``tests/test_static_invariants.py``)
    to build an additive mask whose allow-pattern is not expressible by
    the specific constructors below: ``0.0`` where *allowed*, :data:`NEG_INF`
    elsewhere, float64.
    """
    return np.where(np.asarray(allowed, dtype=bool), 0.0, NEG_INF).astype(np.float64)


def block_diagonal_mask(segment_ids: np.ndarray) -> np.ndarray:
    """Eq. 6 mask from a ``(B, W)`` segment-id matrix.

    ``M[b, i, j] = 0`` iff positions ``i`` and ``j`` of row ``b`` belong to
    the same request (``Q_i K_iᵀ`` blocks); ``NEG_INF`` otherwise —
    including every interaction involving padding (id ``-1`` never matches
    because padding is additionally vetoed explicitly).
    """
    seg = np.asarray(segment_ids)
    if seg.ndim != 2:
        raise ValueError(f"segment_ids must be (B, W), got shape {seg.shape}")
    same = seg[:, :, None] == seg[:, None, :]
    valid = seg >= 0
    allowed = same & valid[:, :, None] & valid[:, None, :]
    return np.where(allowed, 0.0, NEG_INF).astype(np.float64)


def causal_block_mask(segment_ids: np.ndarray) -> np.ndarray:
    """Block-diagonal mask ∧ causality *within* each segment.

    Used by the decoder's self-attention under ConcatBatching: a token may
    attend only to earlier-or-equal positions of its *own* request.
    Because segments are contiguous, within-segment causality coincides
    with global causality restricted to the block diagonal.
    """
    seg = np.asarray(segment_ids)
    b, w = seg.shape
    same = seg[:, :, None] == seg[:, None, :]
    valid = seg >= 0
    causal = np.tril(np.ones((w, w), dtype=bool))
    allowed = same & causal[None, :, :] & valid[:, :, None] & valid[:, None, :]
    return np.where(allowed, 0.0, NEG_INF).astype(np.float64)


def cross_attention_mask(
    query_segment_ids: np.ndarray, key_segment_ids: np.ndarray
) -> np.ndarray:
    """Decoder→encoder cross-attention mask under ConcatBatching.

    A decoder token of request *r* may only attend to encoder positions of
    the same request *r*.  Shapes: queries ``(B, Wq)``, keys ``(B, Wk)`` →
    mask ``(B, Wq, Wk)``.
    """
    q = np.asarray(query_segment_ids)
    k = np.asarray(key_segment_ids)
    if q.shape[0] != k.shape[0]:
        raise ValueError(
            f"batch mismatch: queries {q.shape[0]} rows, keys {k.shape[0]} rows"
        )
    same = q[:, :, None] == k[:, None, :]
    allowed = same & (q >= 0)[:, :, None] & (k >= 0)[:, None, :]
    return np.where(allowed, 0.0, NEG_INF).astype(np.float64)


def padding_key_mask(segment_ids: np.ndarray) -> np.ndarray:
    """``(B, 1, W)`` additive mask hiding padded *key* positions only.

    This is the mask traditional NaiveBatching needs (no concatenation —
    every non-pad token in a row is one request).
    """
    seg = np.asarray(segment_ids)
    return np.where(seg >= 0, 0.0, NEG_INF)[:, None, :].astype(np.float64)


def layout_attention_mask(
    layout: BatchLayout,
    *,
    causal: bool = False,
    width: Optional[int] = None,
) -> np.ndarray:
    """Build the ``(B, W, W)`` self-attention mask for a batch layout."""
    seg = layout.segment_id_matrix(width)
    return causal_block_mask(seg) if causal else block_diagonal_mask(seg)
