"""The customized self-attention of TCB: ``Att_CB`` and ``Att_CB_S``.

These are the single-head building blocks (Fig. 6 and Fig. 7 of the
paper).  Multi-head plumbing lives in :mod:`repro.model.attention`; the
functions here take already-projected ``Q, K, V`` of shape ``(..., W, d)``
(any leading batch/head dims broadcast).

Three implementations are provided:

- :func:`att_cb_reference` — the literal per-request loop: slice each
  segment out, run vanilla attention on it, write the result back.  Slow,
  obviously correct; the ground truth the vectorised kernels are tested
  against.
- :func:`att_cb` — Eq. 5: one big ``QKᵀ`` with the block-diagonal additive
  mask ``M`` of Eq. 6.  Computes (then masks) the redundant off-diagonal
  blocks — exactly the waste slotted ConcatBatching removes.
- :func:`att_cb_s` — Eq. 8: slot-wise attention, one slot at a time (each
  slot is a batched matmul over rows and heads; the GPU's "slots in
  parallel" has no counterpart on one CPU core, where a slot-sized working
  set that stays in cache is what pays).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.masks import NEG_INF, block_diagonal_mask
from repro.numerics import epilogue, softmax

__all__ = ["att_cb_reference", "att_cb", "att_cb_s", "attention"]


def attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: Optional[np.ndarray] = None,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Vanilla scaled dot-product attention (paper Eq. 4).

    ``mask`` is additive (0 / -inf) and must broadcast against the score
    matrix ``(..., Wq, Wk)``.
    """
    d = q.shape[-1]
    s = (1.0 / np.sqrt(d)) if scale is None else scale
    scores = epilogue(np.multiply, q @ np.swapaxes(k, -1, -2), s)
    if mask is not None:
        scores = scores + mask
    return softmax(scores, axis=-1) @ v


def att_cb_reference(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    segment_ids: np.ndarray,
) -> np.ndarray:
    """Ground-truth ConcatBatching attention: loop over segments.

    Each request's segment is sliced out and attended independently —
    numerically identical to running the request alone.  Padding positions
    produce zeros.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 3:
        raise ValueError(
            f"reference kernel is single-head only: expected (B, W, d), got {q.shape}"
        )
    out = np.zeros_like(q)
    seg = np.asarray(segment_ids)
    batch = seg.shape[0]
    for b in range(batch):
        ids = seg[b]
        for rid in np.unique(ids[ids >= 0]):
            sel = ids == rid
            out[b, sel, :] = attention(q[b, sel, :], k[b, sel, :], v[b, sel, :])
    return out


def att_cb(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Pure ConcatBatching attention (paper Eq. 5).

    ``mask`` is the block-diagonal matrix ``M`` from Eq. 6 (built by
    :func:`repro.core.masks.block_diagonal_mask`); it broadcasts over any
    leading head dimension.  The full ``W × W`` score matrix is computed —
    the redundancy slotted ConcatBatching later eliminates.
    """
    return attention(q, k, v, mask=mask)


def att_cb_s(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    slot_spans: Sequence[tuple[int, int]],
    slot_masks: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> np.ndarray:
    """Slotted ConcatBatching attention (paper Eq. 8).

    ``slot_spans`` is the list of ``(start, end)`` token spans shared by
    every row (slots are row-position aligned by construction — Algorithm
    2 divides all rows with the same slot size).  ``slot_masks``, when
    given, carries each slot's *within-slot* block-diagonal mask (several
    short requests may share a slot); ``None`` entries mean the slot holds
    a single request and needs no mask.

    Slots are computed one after another and written into their span of
    the output — the literal Eq. 8.  One slot's scores (``B·H·z²``) stay in
    cache through scale, mask, softmax and the value matmul, which is why
    this beats reshaping equal-size slots to ``(B·n, z, d)`` and running
    them as one batched matmul: that form walks the whole ``B·H·n·z²``
    score tensor once per softmax pass and, with within-slot masks,
    measured level at best and up to 1.5× slower over ``z`` = 7…100
    (CHANGES.md, PR 17).
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if not slot_spans:
        raise ValueError("slot_spans must contain at least one span")
    w = q.shape[-2]
    covered = sorted(slot_spans)
    pos = 0
    for start, end in covered:
        if start != pos:
            raise ValueError(f"slot spans not contiguous at {start} (expected {pos})")
        pos = end
    if pos != w:
        raise ValueError(f"slot spans cover {pos} tokens but width is {w}")

    out = np.zeros_like(q)
    masks = slot_masks if slot_masks is not None else [None] * len(covered)
    if len(masks) != len(covered):
        raise ValueError("slot_masks must align with slot_spans")
    for (start, end), m in zip(covered, masks):
        out[..., start:end, :] = attention(
            q[..., start:end, :],
            k[..., start:end, :],
            v[..., start:end, :],
            mask=m,
        )
    return out
