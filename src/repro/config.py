"""Configuration dataclasses for the model, engines and serving system.

The defaults mirror the paper's experimental settings (§6.1): a Seq2Seq
encoder-decoder with 3 encoder and 3 decoder layers, hidden dimension 3072,
8 attention heads and a maximum sentence length of 400 tokens.

The *real* NumPy engine is typically run with a much smaller
:func:`ModelConfig.tiny` configuration in tests and examples; the analytic
cost model (see :mod:`repro.engine.cost_model`) uses the paper-scale
dimensions because it never materialises weights.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ModelConfig", "BatchConfig", "SchedulerConfig"]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of the Seq2Seq transformer (paper §6.1)."""

    vocab_size: int = 1000
    d_model: int = 3072
    num_heads: int = 8
    num_encoder_layers: int = 3
    num_decoder_layers: int = 3
    d_ff: int = 0  # 0 -> 4 * d_model
    max_len: int = 400
    eos_token: int = 1
    bos_token: int = 2
    pad_token: int = 0

    def __post_init__(self) -> None:
        if self.d_model % self.num_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by num_heads={self.num_heads}"
            )
        if self.vocab_size < 4:
            raise ValueError("vocab_size must leave room for special tokens")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.num_heads

    @property
    def ffn_dim(self) -> int:
        return self.d_ff if self.d_ff > 0 else 4 * self.d_model

    @staticmethod
    def paper() -> "ModelConfig":
        """The configuration used in the paper's evaluation."""
        return ModelConfig()

    @staticmethod
    def tiny(vocab_size: int = 64, max_len: int = 64) -> "ModelConfig":
        """A small configuration for fast real-execution tests."""
        return ModelConfig(
            vocab_size=vocab_size,
            d_model=32,
            num_heads=4,
            num_encoder_layers=2,
            num_decoder_layers=2,
            max_len=max_len,
        )


@dataclass(frozen=True)
class BatchConfig:
    """Batch geometry: ``B`` rows of at most ``L`` tokens (paper §5.1)."""

    num_rows: int = 64
    row_length: int = 400

    def __post_init__(self) -> None:
        if self.num_rows < 1 or self.row_length < 1:
            raise ValueError("num_rows and row_length must be >= 1")

    @property
    def capacity_tokens(self) -> int:
        return self.num_rows * self.row_length


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunable parameters of the DAS algorithm (paper §5.2).

    ``eta`` (η) is the fraction of the saturating prefix taken as the
    utility-dominant set; ``q`` scales the utility threshold of the
    deadline-aware set.  The paper requires ``eta + q = 1`` for the
    competitive-ratio proof; we warn-free allow other values but
    :func:`competitive_ratio` always reports ``ηq / (ηq + 1)``.
    """

    eta: float = 0.5
    q: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.eta < 1.0):
            raise ValueError(f"eta must be in (0, 1), got {self.eta}")
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must be in (0, 1), got {self.q}")

    @property
    def competitive_ratio(self) -> float:
        """Theorem 5.1 bound: ``ηq / (ηq + 1)`` (⅕ at η=q=½)."""
        return (self.eta * self.q) / (self.eta * self.q + 1.0)
