"""Position-wise feed-forward block (post-attention FFN)."""

from __future__ import annotations

import numpy as np

from repro.model.functional import linear
from repro.model.params import FeedForwardParams

__all__ = ["feed_forward"]


def feed_forward(params: FeedForwardParams, x: np.ndarray) -> np.ndarray:
    """``relu(x W1 + b1) W2 + b2`` applied position-wise.

    The ReLU overwrites the fresh ``x W1 + b1`` instead of allocating a
    second ``(…, d_ff)`` array.
    """
    hidden = linear(x, params.w1, params.b1)
    return linear(np.maximum(hidden, 0.0, out=hidden), params.w2, params.b2)
