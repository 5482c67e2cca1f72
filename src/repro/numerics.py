"""Stateless numeric primitives (dependency-free leaf module).

These follow the vectorised-NumPy idioms from the HPC guides: everything
broadcasts over leading batch dimensions, reductions use ``keepdims`` to
avoid reshapes, and the softmax is the numerically stable max-shifted
formulation so that additive ``-1e9`` masks underflow to exact zeros.
"""

from __future__ import annotations

import numpy as np

__all__ = ["softmax", "relu", "gelu", "layer_norm", "linear", "log_softmax"]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    Rows that are entirely masked (all entries very negative) come out as
    a uniform distribution rather than NaN; such rows only ever correspond
    to padding positions whose outputs are discarded downstream.
    """
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    denom = shifted.sum(axis=axis, keepdims=True)
    return shifted / denom


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-softmax (used by generation scoring)."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximation GELU (as in BERT/GPT implementations)."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x**3)))


def layer_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """LayerNorm over the last dimension."""
    centred = x - x.mean(axis=-1, keepdims=True)
    var = (centred * centred).mean(axis=-1, keepdims=True)
    return centred / np.sqrt(var + eps) * gamma + beta


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """``x @ weight + bias`` with weight of shape ``(in, out)``."""
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out
