"""Stochastic decoding: temperature and top-k sampling over layouts.

The greedy decoder covers the paper's determinism needs; production
Seq2Seq services also expose sampling.  :func:`sample_decode` runs the
same loop as :meth:`Seq2SeqModel.greedy_decode`
(:func:`repro.model.generation.generate`) but draws each next token from
the softmax distribution, optionally sharpened by ``temperature`` and
truncated to the ``top_k`` most likely tokens.

With ``temperature → 0`` (or ``top_k=1``) it reduces exactly to greedy
decoding — tested in ``tests/test_sampling.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.layout import BatchLayout
from repro.model.functional import softmax
from repro.model.generation import GenerationResult, generate
from repro.model.seq2seq import Seq2SeqModel
from repro.rng import ensure_rng

__all__ = ["sample_decode"]


def _pick(
    logits: np.ndarray,
    rng: np.random.Generator,
    temperature: float,
    top_k: Optional[int],
) -> int:
    if temperature <= 0.0 or top_k == 1:
        return int(np.argmax(logits))
    scaled = logits / temperature
    if top_k is not None:
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        kth = np.partition(scaled, -top_k)[-top_k]
        scaled = np.where(scaled >= kth, scaled, -np.inf)
    probs = softmax(scaled)
    return int(rng.choice(len(probs), p=probs))


def sample_decode(
    model: Seq2SeqModel,
    layout: BatchLayout,
    max_new_tokens: int = 16,
    *,
    temperature: float = 1.0,
    top_k: Optional[int] = None,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> GenerationResult:
    """Sampled autoregressive decoding of all requests in a layout.

    Pass ``rng`` to share a caller-owned Generator stream; otherwise a
    fresh one is derived from ``seed`` (historical behavior).
    """
    if temperature < 0.0:
        raise ValueError("temperature must be >= 0")
    rng = ensure_rng(rng, default_seed=seed)
    # One draw per active request, in row-major request order.
    return generate(
        model,
        layout,
        max_new_tokens,
        lambda logits: [_pick(row, rng, temperature, top_k) for row in logits],
    )
