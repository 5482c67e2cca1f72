"""Autoregressive generation: one ragged, KV-cached decode loop.

:func:`generate` is the only decode loop of the model package; greedy
decoding and sampling differ in the *chooser* they hand it and in
nothing else.  It works per request, not per batch row:

- the encoder memory of the layout's useful tokens is packed into one
  ``(T, d)`` array, request after request in row-major order, with an
  ``offsets`` vector marking each request's contiguous range; every
  layer's cross-attention K/V are projected from it once,
- each layer keeps a dense self-attention cache
  ``(requests, H, max_new_tokens, d/H)``,
- a step forwards one new position per *active* request.  Self-attention
  reads the request's own cached prefix; cross-attention is a segment
  softmax over the request's own range of the packed K/V
  (``reduceat`` on ``offsets``).  No additive mask is built and no
  padding position is ever computed,
- a request that emits EOS leaves the active set, and the caches are
  compacted to the survivors.

Exactness: decoder self-attention under ConcatBatching is causal within
a request and blocked across requests, so a position's hidden state
never changes once computed — cached K/V are final — and cross-attention
K/V depend only on the encoder memory.  The full-recompute loop over
the masked decoder stack
(:func:`repro.experiments.ablations.recompute_decode`) is the oracle the
tests compare against token for token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.core.layout import BatchLayout
from repro.model.feedforward import feed_forward
from repro.model.functional import layer_norm, linear, softmax
from repro.model.params import AttentionParams

if TYPE_CHECKING:
    from repro.model.seq2seq import Seq2SeqModel

__all__ = ["GenerationResult", "Chooser", "greedy", "generate"]

# ``(m, vocab)`` logits of the active requests, in row-major request
# order, to their ``m`` next token ids.
Chooser = Callable[[np.ndarray], Sequence[int]]


def greedy(logits: np.ndarray) -> np.ndarray:
    """The argmax chooser."""
    return logits.argmax(axis=-1)


@dataclass
class GenerationResult:
    """Per-request outputs of a decoding run."""

    # request_id -> generated token ids (without BOS, including EOS if hit)
    outputs: dict[int, list[int]] = field(default_factory=dict)
    # request_id -> decode step (1-based) at which the request finished;
    # requests that exhausted the budget get the budget value.
    completion_step: dict[int, int] = field(default_factory=dict)
    steps_run: int = 0


@dataclass
class _LayerCache:
    """K/V of one decoder layer, restricted to the active requests."""

    self_k: np.ndarray  # (m, H, max_new_tokens, d/H)
    self_v: np.ndarray
    cross_k: np.ndarray  # (T, H, d/H), packed by request
    cross_v: np.ndarray

    def keep(self, requests: np.ndarray, tokens: np.ndarray) -> None:
        self.self_k = self.self_k[requests]
        self.self_v = self.self_v[requests]
        self.cross_k = self.cross_k[tokens]
        self.cross_v = self.cross_v[tokens]


def _project(
    params: AttentionParams, which: str, x: np.ndarray, num_heads: int
) -> np.ndarray:
    """``(m, d) -> (m, H, d/H)`` through the ``which`` projection."""
    out = linear(x, getattr(params, f"w_{which}"), getattr(params, f"b_{which}"))
    return out.reshape(len(x), num_heads, -1)


def generate(
    model: "Seq2SeqModel",
    layout: BatchLayout,
    max_new_tokens: int,
    choose: Chooser,
    *,
    memory: Optional[np.ndarray] = None,
) -> GenerationResult:
    """Decode every request of ``layout``; ``choose`` picks each next token."""
    if layout.num_requests == 0:
        return GenerationResult()
    index = layout.segment_index()
    if memory is None:
        packed = model.encode_requests(layout, index)
    else:
        packed = memory[index.coords()]
    lengths = index.lengths
    cfg = model.config
    heads = cfg.num_heads
    layers = model.params.decoder_layers
    scale = 1.0 / np.sqrt(cfg.head_dim)

    rids = [req.request_id for req in layout.requests()]
    result = GenerationResult(
        outputs={rid: [] for rid in rids}, completion_step=dict.fromkeys(rids, 0)
    )
    caches = [
        _LayerCache(
            self_k=np.empty((len(rids), heads, max_new_tokens, cfg.head_dim)),
            self_v=np.empty((len(rids), heads, max_new_tokens, cfg.head_dim)),
            cross_k=_project(layer.cross_attn, "k", packed, heads),
            cross_v=_project(layer.cross_attn, "v", packed, heads),
        )
        for layer in layers
    ]

    alive = np.arange(len(rids))  # active requests, as indices into rids
    tokens = np.full(len(rids), cfg.bos_token, dtype=np.int64)
    for step in range(1, max_new_tokens + 1):
        result.steps_run = step
        m = len(alive)
        pos = step - 1
        starts = np.cumsum(lengths) - lengths  # offsets of the packed K/V
        owner = np.repeat(np.arange(m), lengths)  # packed token -> request
        x = model.embed(tokens, np.full(m, pos))
        for layer, cache in zip(layers, caches):
            # Causal self-attention over the request's own cached prefix.
            q = _project(layer.self_attn, "q", x, heads) * scale
            cache.self_k[:, :, pos] = _project(layer.self_attn, "k", x, heads)
            cache.self_v[:, :, pos] = _project(layer.self_attn, "v", x, heads)
            k = cache.self_k[:, :, : pos + 1]
            v = cache.self_v[:, :, : pos + 1]
            attn = softmax(np.einsum("mhd,mhpd->mhp", q, k))
            ctx = np.einsum("mhp,mhpd->mhd", attn, v).reshape(m, -1)
            ctx = linear(ctx, layer.self_attn.w_o, layer.self_attn.b_o)
            x = layer_norm(x + ctx, layer.norm1.gamma, layer.norm1.beta)

            # Cross-attention: a softmax per request over its own range
            # of the packed encoder K/V.
            q = _project(layer.cross_attn, "q", x, heads) * scale
            scores = np.einsum("thd,thd->th", q[owner], cache.cross_k)
            peak = np.maximum.reduceat(scores, starts, axis=0)
            weights = np.exp(scores - peak[owner])
            total = np.add.reduceat(weights, starts, axis=0)
            ctx = np.add.reduceat(
                weights[:, :, None] * cache.cross_v, starts, axis=0
            )
            ctx = (ctx / total[:, :, None]).reshape(m, -1)
            ctx = linear(ctx, layer.cross_attn.w_o, layer.cross_attn.b_o)
            x = layer_norm(x + ctx, layer.norm2.gamma, layer.norm2.beta)

            x = layer_norm(
                x + feed_forward(layer.ffn, x), layer.norm3.gamma, layer.norm3.beta
            )

        tokens = np.asarray(choose(model.project_logits(x)), dtype=np.int64)
        for i, token in zip(alive.tolist(), tokens.tolist()):
            result.outputs[rids[i]].append(token)
        going = (tokens != cfg.eos_token) & (step < max_new_tokens)
        for i in alive[~going].tolist():
            result.completion_step[rids[i]] = step
        if not going.any():
            break
        if not going.all():
            for cache in caches:
                cache.keep(going, going[owner])
            alive, tokens, lengths = alive[going], tokens[going], lengths[going]
    return result
