"""Autoregressive generation: one ragged, KV-cached decode loop.

:func:`generate` is the only decode loop of the model package: greedy
decoding, each step's next token the argmax of its logits.  It works
per request, not per batch row:

- the layout's requests are ordered by length once (stable, the order
  the packed encoder runs them in), and a run of equal-length requests
  is a *group*.  Every layer projects its cross-attention K and V from
  the encoder memory once, in one linear, and stores them per group as
  contiguous ``(n, H, d/H, ℓ)`` keys and ``(n, H, ℓ, d/H)`` values,
- each layer keeps a self-attention cache
  ``(requests, H, max_new_tokens, d/H)``,
- a step forwards one new position per *active* request, with the
  activations in row-major request order.
  Self-attention projects Q, K and V in one fused linear and reads the
  request's own cached prefix.  Cross-attention gathers the step's
  ``(m, d)`` queries into group order and runs two batched matmuls per
  group over the group's blocks, then scatters the ``(m, d)`` result
  back.  No per-token index is built, no ``(T, ·)`` array is touched
  after setup, and no mask or padding position is ever computed,
- a request that emits EOS leaves the active set: the self caches keep
  the survivors' rows, and only the groups that lost a member compact
  their blocks.

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
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.layout import BatchLayout
from repro.model.feedforward import feed_forward
from repro.model.functional import add_norm, linear, softmax
from repro.model.params import AttentionParams, DecoderLayerParams

if TYPE_CHECKING:
    from repro.model.seq2seq import Seq2SeqModel

__all__ = ["GenerationResult", "generate"]


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
class _Group:
    """Equal-length requests and their cross-attention K/V, one block per layer."""

    length: int
    members: np.ndarray  # request indices, ascending
    keys: list[np.ndarray]  # (n, H, d/H, ℓ)
    values: list[np.ndarray]  # (n, H, ℓ, d/H)


class _Cache:
    """K/V of every decoder layer for the active requests of one decode.

    Requests are numbered in row-major order; ``alive`` (ascending) lists
    the active ones, and row ``r`` of a step's activations and of the
    self caches is request ``alive[r]``.
    """

    def __init__(
        self,
        layers: Sequence[DecoderLayerParams],
        memory: np.ndarray,
        lengths: np.ndarray,
        order: np.ndarray,
        heads: int,
        max_new_tokens: int,
    ) -> None:
        n, d = len(order), memory.shape[1]
        self.heads = heads
        self.scale = 1.0 / np.sqrt(d // heads)
        shape = (n, heads, max_new_tokens, d // heads)
        self.self_k = [np.empty(shape) for _ in layers]
        self.self_v = [np.empty(shape) for _ in layers]

        # ``memory`` is packed in ``order``: group after group.
        sorted_lengths = lengths[order]
        bounds = [0, *(np.flatnonzero(np.diff(sorted_lengths)) + 1).tolist(), n]
        offsets = np.concatenate(([0], np.cumsum(sorted_lengths))).tolist()
        spans = list(zip(bounds, bounds[1:]))
        self.groups = [_Group(int(sorted_lengths[i]), order[i:j], [], []) for i, j in spans]
        for layer in layers:
            w, b = layer.cross_attn.qkv
            kv = linear(memory, w[:, d:], b[d:])  # (T, 2d): K then V
            for g, (i, j) in zip(self.groups, spans):
                block = kv[offsets[i] : offsets[j]].reshape(j - i, -1, 2, heads, d // heads)
                g.keys.append(np.ascontiguousarray(block[:, :, 0].transpose(0, 2, 3, 1)))
                g.values.append(np.ascontiguousarray(block[:, :, 1].transpose(0, 2, 1, 3)))
            del kv  # before the next layer's, so that only one is ever alive
        self.group_of = np.repeat(np.arange(len(self.groups)), np.diff(bounds))[
            np.argsort(order)
        ]
        self._index(np.arange(n))

    def _index(self, alive: np.ndarray) -> None:
        """The row permutations a step needs, for the active set ``alive``."""
        live = [g for g in self.groups if len(g.members)]
        counts = [len(g.members) for g in live]
        lengths = [g.length for g in live]
        # Activation rows in group order, and each group's span of them.
        self.by_group = np.searchsorted(alive, np.concatenate([g.members for g in live]))
        self.from_group = np.argsort(self.by_group)
        rows = np.cumsum([0, *counts]).tolist()
        # One buffer holds a step's cross-attention scores, group after
        # group, each group's as an (n, H, 1, ℓ) view; ``row_starts`` is
        # where each (request, head) row of ℓ scores begins.
        cells = np.cumsum([0, *np.multiply(counts, lengths)]) * self.heads
        self.scores = np.empty(cells[-1])
        row_lengths = np.repeat(lengths, np.multiply(counts, self.heads))
        self.row_starts = np.cumsum(row_lengths) - row_lengths
        self.spans = [
            (
                rows[k],
                rows[k + 1],
                g,
                self.scores[cells[k] : cells[k + 1]].reshape(counts[k], self.heads, 1, -1),
            )
            for k, g in enumerate(live)
        ]

    def attend_self(
        self, l: int, p: AttentionParams, x: np.ndarray, pos: int
    ) -> np.ndarray:
        """Causal self-attention of the new position over each request's own prefix."""
        m = len(x)
        qkv = linear(x, *p.qkv).reshape(m, 3, self.heads, -1)
        k, v = self.self_k[l], self.self_v[l]
        k[:, :, pos] = qkv[:, 1]
        v[:, :, pos] = qkv[:, 2]
        q = qkv[:, 0] * self.scale
        attn = softmax(np.einsum("mhd,mhpd->mhp", q, k[:, :, : pos + 1]))
        ctx = np.einsum("mhp,mhpd->mhd", attn, v[:, :, : pos + 1]).reshape(m, -1)
        return linear(ctx, p.w_o, p.b_o)

    def attend_cross(self, l: int, p: AttentionParams, x: np.ndarray) -> np.ndarray:
        """Each request's query over its own encoder memory, group by group."""
        m, d = x.shape
        w, b = p.qkv
        q = linear(x, w[:, :d], b[:d])
        q *= self.scale
        q = q[self.by_group].reshape(m, self.heads, 1, -1)
        for i, j, g, scores in self.spans:
            np.matmul(q[i:j], g.keys[l], out=scores)
            scores -= scores.max(axis=-1, keepdims=True)
        # The softmax's exp and row sums, once over every group's scores.
        np.exp(self.scores, out=self.scores)
        total = np.add.reduceat(self.scores, self.row_starts)
        ctx = np.empty_like(q)
        for i, j, g, scores in self.spans:
            np.matmul(scores, g.values[l], out=ctx[i:j])
        ctx /= total.reshape(m, self.heads, 1, 1)
        return linear(ctx[self.from_group].reshape(m, -1), p.w_o, p.b_o)

    def retire(self, alive: np.ndarray, going: np.ndarray) -> None:
        """Remove the requests ``alive[~going]``."""
        finished = alive[~going]
        self.self_k = [k[going] for k in self.self_k]
        self.self_v = [v[going] for v in self.self_v]
        for index in np.unique(self.group_of[finished]).tolist():
            g = self.groups[index]
            keep = np.isin(g.members, finished, invert=True)
            g.members = g.members[keep]
            g.keys = [k[keep] for k in g.keys]
            g.values = [v[keep] for v in g.values]
        self._index(alive[going])


def generate(
    model: "Seq2SeqModel",
    layout: BatchLayout,
    max_new_tokens: int,
    *,
    memory: Optional[np.ndarray] = None,
) -> GenerationResult:
    """Greedy-decode every request of ``layout``."""
    if layout.num_requests == 0:
        return GenerationResult()
    index = layout.segment_index()
    order = np.argsort(index.lengths, kind="stable")
    if memory is None:
        packed = model.encode_requests(layout, index)
    else:
        packed = memory[index.coords(order)]
    cfg = model.config
    layers = model.params.decoder_layers

    rids = [req.request_id for req in layout.requests()]
    result = GenerationResult(
        outputs={rid: [] for rid in rids}, completion_step=dict.fromkeys(rids, 0)
    )
    cache = _Cache(layers, packed, index.lengths, order, cfg.num_heads, max_new_tokens)

    alive = np.arange(len(rids))  # active requests, as indices into rids
    tokens = np.full(len(rids), cfg.bos_token, dtype=np.int64)
    for step in range(1, max_new_tokens + 1):
        result.steps_run = step
        pos = step - 1
        x = model.embed(tokens, np.full(len(alive), pos))
        for l, layer in enumerate(layers):
            x = add_norm(
                x,
                cache.attend_self(l, layer.self_attn, x, pos),
                layer.norm1.gamma,
                layer.norm1.beta,
            )
            x = add_norm(
                x, cache.attend_cross(l, layer.cross_attn, x), layer.norm2.gamma, layer.norm2.beta
            )
            x = add_norm(x, feed_forward(layer.ffn, x), layer.norm3.gamma, layer.norm3.beta)

        tokens = model.project_logits(x).argmax(axis=-1)
        for i, token in zip(alive.tolist(), tokens.tolist()):
            result.outputs[rids[i]].append(token)
        going = (tokens != cfg.eos_token) & (step < max_new_tokens)
        for i in alive[~going].tolist():
            result.completion_step[rids[i]] = step
        if not going.any():
            break
        if not going.all():
            cache.retire(alive, going)
            alive, tokens = alive[going], tokens[going]
    return result
