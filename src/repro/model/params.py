"""Parameter containers and initialisation for the NumPy Seq2Seq model.

Weights live in plain dataclasses of NumPy arrays — a deliberately
torch-free "parameter tree".  Initialisation is Xavier-uniform with a
seeded :class:`numpy.random.Generator` so every test and example is
reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.config import ModelConfig

__all__ = [
    "AttentionParams",
    "FeedForwardParams",
    "LayerNormParams",
    "EncoderLayerParams",
    "DecoderLayerParams",
    "Seq2SeqParams",
    "init_seq2seq",
]


# AttentionParams' fused Q/K/V weight and bias, and the fields that are
# views of it; none of them may be rebound once built.
_FUSED = ("qkv", "w_q", "w_k", "w_v", "b_q", "b_k", "b_v")


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


@dataclass
class AttentionParams:
    """Projection weights for one multi-head attention block (Eq. 3)."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    b_q: np.ndarray
    b_k: np.ndarray
    b_v: np.ndarray
    b_o: np.ndarray

    def __post_init__(self) -> None:
        # Q, K and V live in one (d, 3d) weight and one (3d,) bias, and the
        # three fields are column views of them: one linear projects all
        # three without the weights existing twice.
        w = np.concatenate((self.w_q, self.w_k, self.w_v), axis=1)
        b = np.concatenate((self.b_q, self.b_k, self.b_v))
        cuts = np.cumsum([self.w_q.shape[1], self.w_k.shape[1]]).tolist()
        self.w_q, self.w_k, self.w_v = np.split(w, cuts, axis=1)
        self.b_q, self.b_k, self.b_v = np.split(b, cuts)
        self.qkv = (w, b)

    def __setattr__(self, name: str, value: object) -> None:
        # Rebinding either side would leave the other with old weights
        # (``p.w_q *= 2`` writes in place and rebinds the same array).
        if name in _FUSED and "qkv" in self.__dict__ and value is not self.__dict__[name]:
            raise AttributeError(
                f"{name} is a view of the fused qkv weight: write into it in place, "
                "or build new AttentionParams (dataclasses.replace)"
            )
        super().__setattr__(name, value)

    @staticmethod
    def init(rng: np.random.Generator, d_model: int) -> "AttentionParams":
        return AttentionParams(
            w_q=_xavier(rng, d_model, d_model),
            w_k=_xavier(rng, d_model, d_model),
            w_v=_xavier(rng, d_model, d_model),
            w_o=_xavier(rng, d_model, d_model),
            b_q=np.zeros(d_model),
            b_k=np.zeros(d_model),
            b_v=np.zeros(d_model),
            b_o=np.zeros(d_model),
        )


@dataclass
class FeedForwardParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @staticmethod
    def init(rng: np.random.Generator, d_model: int, d_ff: int) -> "FeedForwardParams":
        return FeedForwardParams(
            w1=_xavier(rng, d_model, d_ff),
            b1=np.zeros(d_ff),
            w2=_xavier(rng, d_ff, d_model),
            b2=np.zeros(d_model),
        )


@dataclass
class LayerNormParams:
    gamma: np.ndarray
    beta: np.ndarray

    @staticmethod
    def init(d_model: int) -> "LayerNormParams":
        return LayerNormParams(gamma=np.ones(d_model), beta=np.zeros(d_model))


@dataclass
class EncoderLayerParams:
    self_attn: AttentionParams
    ffn: FeedForwardParams
    norm1: LayerNormParams
    norm2: LayerNormParams

    @staticmethod
    def init(rng: np.random.Generator, d_model: int, d_ff: int) -> "EncoderLayerParams":
        return EncoderLayerParams(
            self_attn=AttentionParams.init(rng, d_model),
            ffn=FeedForwardParams.init(rng, d_model, d_ff),
            norm1=LayerNormParams.init(d_model),
            norm2=LayerNormParams.init(d_model),
        )


@dataclass
class DecoderLayerParams:
    self_attn: AttentionParams
    cross_attn: AttentionParams
    ffn: FeedForwardParams
    norm1: LayerNormParams
    norm2: LayerNormParams
    norm3: LayerNormParams

    @staticmethod
    def init(rng: np.random.Generator, d_model: int, d_ff: int) -> "DecoderLayerParams":
        return DecoderLayerParams(
            self_attn=AttentionParams.init(rng, d_model),
            cross_attn=AttentionParams.init(rng, d_model),
            ffn=FeedForwardParams.init(rng, d_model, d_ff),
            norm1=LayerNormParams.init(d_model),
            norm2=LayerNormParams.init(d_model),
            norm3=LayerNormParams.init(d_model),
        )


@dataclass
class Seq2SeqParams:
    """Full parameter tree for the encoder-decoder model."""

    config: ModelConfig
    embedding: np.ndarray  # (vocab, d_model), shared encoder/decoder
    pe_table: np.ndarray  # (max_len, d_model) sinusoid table
    encoder_layers: list[EncoderLayerParams] = field(default_factory=list)
    decoder_layers: list[DecoderLayerParams] = field(default_factory=list)
    out_proj: Optional[np.ndarray] = None  # (d_model, vocab)
    out_bias: Optional[np.ndarray] = None

    def num_parameters(self) -> int:
        total = self.embedding.size
        if self.out_proj is not None:
            total += self.out_proj.size + (
                self.out_bias.size if self.out_bias is not None else 0
            )
        for layer in self.encoder_layers:
            for attn in (layer.self_attn,):
                total += sum(
                    getattr(attn, f).size
                    for f in ("w_q", "w_k", "w_v", "w_o", "b_q", "b_k", "b_v", "b_o")
                )
            total += layer.ffn.w1.size + layer.ffn.b1.size
            total += layer.ffn.w2.size + layer.ffn.b2.size
            total += 2 * (layer.norm1.gamma.size + layer.norm1.beta.size)
        for layer in self.decoder_layers:
            for attn in (layer.self_attn, layer.cross_attn):
                total += sum(
                    getattr(attn, f).size
                    for f in ("w_q", "w_k", "w_v", "w_o", "b_q", "b_k", "b_v", "b_o")
                )
            total += layer.ffn.w1.size + layer.ffn.b1.size
            total += layer.ffn.w2.size + layer.ffn.b2.size
            total += 3 * (layer.norm1.gamma.size + layer.norm1.beta.size)
        return int(total)


def init_seq2seq(config: ModelConfig, seed: int = 0) -> Seq2SeqParams:
    """Initialise the full model from a seed (Xavier-uniform weights)."""
    from repro.core.positional import sinusoidal_encoding

    rng = np.random.default_rng(seed)
    d, d_ff = config.d_model, config.ffn_dim
    return Seq2SeqParams(
        config=config,
        embedding=rng.normal(0.0, d**-0.5, size=(config.vocab_size, d)),
        pe_table=sinusoidal_encoding(config.max_len + 1, d),
        encoder_layers=[
            EncoderLayerParams.init(rng, d, d_ff)
            for _ in range(config.num_encoder_layers)
        ],
        decoder_layers=[
            DecoderLayerParams.init(rng, d, d_ff)
            for _ in range(config.num_decoder_layers)
        ],
        out_proj=_xavier(rng, d, config.vocab_size),
        out_bias=np.zeros(config.vocab_size),
    )
