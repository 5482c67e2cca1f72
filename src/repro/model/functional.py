"""Stateless numeric primitives (re-exported from :mod:`repro.numerics`).

The implementations live in a dependency-free leaf module so that
:mod:`repro.core` can use them without importing the model package.
"""

from repro.numerics import (
    add_norm,
    gelu,
    layer_norm,
    linear,
    relu,
    softmax,
)

__all__ = ["softmax", "relu", "gelu", "layer_norm", "add_norm", "linear"]
