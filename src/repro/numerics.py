"""Stateless numeric primitives (dependency-free leaf module).

These follow the vectorised-NumPy idioms from the HPC guides: everything
broadcasts over leading batch dimensions, reductions use ``keepdims`` to
avoid reshapes, and the softmax is the numerically stable max-shifted
formulation so that additive ``-1e9`` masks underflow to exact zeros.

Epilogues run in place: a bias add, a normalisation or a scale is written
over the fresh temporary it applies to instead of allocating another.  At
the model's sizes every such temporary is megabytes, freshly mapped and
page-faulted; in place it is the same IEEE operation in the same order,
so the bytes do not change.  :func:`epilogue` declines whenever writing in
place would change the result's dtype or shape (a float64 operand on a
float32 buffer, a broadcast that widens), and computes out of place then.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "softmax",
    "relu",
    "gelu",
    "layer_norm",
    "add_norm",
    "linear",
    "epilogue",
]


def epilogue(ufunc: np.ufunc, fresh: np.ndarray, other) -> np.ndarray:
    """``ufunc(fresh, other)``, written over ``fresh`` when that keeps its dtype and shape.

    ``fresh`` must be a temporary of the caller's own that nobody else
    holds.  ``other`` is an array or a scalar; only an ``other`` whose
    shape is a suffix of ``fresh``'s is applied in place.
    """
    shape = getattr(other, "shape", ())
    if (
        isinstance(fresh, np.ndarray)
        and fresh.dtype == np.result_type(fresh, other)
        and shape == fresh.shape[fresh.ndim - len(shape) :]
    ):
        return ufunc(fresh, other, out=fresh)
    return ufunc(fresh, other)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    Rows that are entirely masked (all entries very negative) come out as
    a uniform distribution rather than NaN; such rows only ever correspond
    to padding positions whose outputs are discarded downstream.
    """
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


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
    centred /= np.sqrt(var + eps)
    return epilogue(np.add, epilogue(np.multiply, centred, gamma), beta)


def add_norm(
    x: np.ndarray, sublayer: np.ndarray, gamma: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """``layer_norm(x + sublayer)``: the post-norm residual connection.

    ``sublayer`` is the fresh output of the sublayer and is overwritten
    with the sum when that keeps its dtype and shape.
    """
    return layer_norm(epilogue(np.add, sublayer, x), gamma, beta)


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """``x @ weight + bias`` with weight of shape ``(in, out)``."""
    out = x @ weight
    if bias is not None:
        out = epilogue(np.add, out, bias)
    return out
