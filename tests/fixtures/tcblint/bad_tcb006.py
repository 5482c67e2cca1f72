"""Known-bad fixture: quadratic score-matrix allocations (TCB006)."""

import numpy as np


def score_matrix(b, w):
    return np.zeros((b, w, w))  # line 7


def kw_shape(L):
    return np.empty(shape=(L, L))  # line 11


def fine_rectangular(b, w, d):
    return np.zeros((b, w, d))


def fine_small_constant():
    return np.zeros((3, 3))  # constants are not the L-by-L pattern
