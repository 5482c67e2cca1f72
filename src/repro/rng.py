"""The seed → ``np.random.Generator`` boundary of the system.

Reproducibility invariant (TCB002, ``tests/test_static_invariants.py``):
all randomness threads an *explicit* ``np.random.Generator``, so any figure
or test can be replayed from its seed alone.  ``np.random.default_rng``
may only be called at documented entry points — this module is the
canonical one; pipeline code accepts either a Generator (injected by
the caller) or a seed and lowers it here.

``ensure_rng`` keeps historical seed behavior bit-stable:
``ensure_rng(seed)`` is exactly ``np.random.default_rng(seed)``, so
golden-regression outputs are unchanged by the injection refactor.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

__all__ = ["SeedLike", "ensure_rng", "spawn_child"]

SeedLike = Union[int, np.integer, np.random.SeedSequence, np.random.Generator, None]


def ensure_rng(seed_or_rng: SeedLike, *, default_seed: Optional[int] = None) -> np.random.Generator:
    """Lower a seed — or pass through an injected Generator — to a Generator.

    - ``Generator`` → returned as-is (caller keeps ownership of the stream),
    - ``int`` / ``SeedSequence`` → ``np.random.default_rng(value)``,
    - ``None`` → ``np.random.default_rng(default_seed)`` (with
      ``default_seed=None`` this is OS entropy; pass an int for
      deterministic fallbacks).
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if seed_or_rng is None:
        return np.random.default_rng(default_seed)
    return np.random.default_rng(seed_or_rng)


def spawn_child(rng: np.random.Generator) -> np.random.Generator:
    """Fork an independent child stream off *rng* (parent advances once)."""
    return np.random.default_rng(rng.integers(0, 2**63 - 1))
