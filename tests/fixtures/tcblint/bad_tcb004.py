"""Known-bad fixture: reduced-precision dtypes in hot paths (TCB004).

Checked as a synthetic ``core/...`` module so the rule's path
scoping applies.
"""

import numpy as np


def attr_dtype(x):
    return np.asarray(x, dtype=np.float32)  # line 11


def string_dtype(n):
    return np.zeros(n, dtype="float32")  # line 15


def string_astype(x):
    return x.astype("float16")  # line 19


def fine_float64(x):
    return np.asarray(x, dtype=np.float64)
