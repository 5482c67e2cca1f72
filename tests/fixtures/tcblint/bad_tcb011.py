"""Known-bad TCB011 fixture: two consumers keying the same RNG stream.

Checked as a one-module package; the project rule fingerprints
``SeedSequence`` tuple keys structurally.
"""

import numpy as np

_STREAM_DISTINCT = 0x2B


def plan_stream(seed, index):
    return np.random.SeedSequence((seed, index))


def shed_stream(seed, decision):
    # Same (*, *) fingerprint as plan_stream: the two call sites draw
    # correlated child streams whenever seed/index collide.
    return np.random.SeedSequence((seed, decision))


def tagged_stream(seed, index):
    return np.random.SeedSequence((seed, _STREAM_DISTINCT, index))
