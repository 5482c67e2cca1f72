"""Engine protocol and shared execution plumbing.

An engine consumes the requests the scheduler picked for one engine slot
and returns a :class:`BatchResult` describing what ran: which requests
were actually served, the slot's latency, padding statistics and the
layouts that were executed.

Two execution modes (:class:`EngineMode`):

- ``COST`` — latency from the analytic :class:`GPUCostModel`; token ids
  are never touched, so paper-scale workloads (thousands of requests,
  d_model 3072) run in microseconds of host time.
- ``MEASURED`` — the layouts are executed through the real NumPy
  transformer (encode, then ``max_new_tokens`` of greedy decode) and
  wall-clock timed; the result carries every served request's decoded
  tokens.  Requests must carry token ids (use
  :meth:`InferenceEngine.materialize_tokens` to synthesise them).
"""

from __future__ import annotations

import abc
import enum
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.config import BatchConfig, ModelConfig
from repro.core.layout import BatchLayout
from repro.engine.cost_model import GPUCostModel
from repro.engine.memory import GPUMemorySimulator
from repro.rng import ensure_rng
from repro.types import Request, RequestBatchStats

__all__ = ["MIN_SLOT", "EngineMode", "BatchResult", "InferenceEngine"]

# Engine time floor: a zero-latency slot would spin the serving loops
# forever.  Canonical definition — serving code re-exports it.
MIN_SLOT = 1e-6


class EngineMode(enum.Enum):
    COST = "cost"
    MEASURED = "measured"


@dataclass
class BatchResult:
    """Outcome of serving one engine slot."""

    served: list[Request] = field(default_factory=list)
    rejected: list[Request] = field(default_factory=list)
    latency: float = 0.0
    layouts: list[BatchLayout] = field(default_factory=list)
    stats: RequestBatchStats = field(default_factory=RequestBatchStats)
    # Request id -> decoded tokens; MEASURED mode only (None under COST).
    outputs: Optional[dict[int, list[int]]] = None

    @property
    def num_served(self) -> int:
        return len(self.served)

    @property
    def throughput(self) -> float:
        """Requests served per second of engine time."""
        return 0.0 if self.latency <= 0 else self.num_served / self.latency


class InferenceEngine(abc.ABC):
    """Base class for the four batching-scheme engines."""

    name: str = "base"

    def __init__(
        self,
        batch: BatchConfig,
        *,
        mode: EngineMode = EngineMode.COST,
        cost_model: Optional[GPUCostModel] = None,
        model_config: Optional[ModelConfig] = None,
        model_seed: int = 0,
        max_new_tokens: int = 4,
    ):
        self.batch = batch
        self.mode = mode
        self.cost_model = cost_model or GPUCostModel.calibrated()
        self.max_new_tokens = max_new_tokens
        self._model = None
        self._model_config = model_config
        self._model_seed = model_seed
        self._memory_sim: Optional[GPUMemorySimulator] = None

    # ------------------------------------------------------------------ #
    # Scheme-specific planning
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def plan(self, requests: Sequence[Request]) -> tuple[list[BatchLayout], list[Request]]:
        """Lay out the requests; returns (layouts, rejected)."""

    def set_slot_size(self, slot_size: int) -> None:
        """Scheduler hook for Algorithm 2's slot size; unslotted schemes
        have no slots, so the base engine ignores it."""

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def serve(
        self, requests: Sequence[Request], *, now: float = 0.0
    ) -> BatchResult:
        """Plan and execute one engine slot's worth of requests.

        ``now`` is the simulated dispatch time.  Base engines are
        time-invariant and ignore it; the fault-injection wrapper
        (:class:`repro.faults.engine.FaultyEngine`) needs it to decide
        whether the engine is inside a crash-recovery window.
        """
        if not requests:
            return BatchResult()
        layouts, rejected = self.plan(requests)
        result = BatchResult(rejected=list(rejected), layouts=list(layouts))
        measured = self.mode is EngineMode.MEASURED
        if measured:
            result.outputs = {}
        for layout in layouts:
            layout.validate()
            result.served.extend(layout.requests())
            w = layout.effective_width
            result.stats.num_requests += layout.num_requests
            result.stats.useful_tokens += layout.useful_tokens
            result.stats.padded_tokens += layout.num_rows * w - layout.useful_tokens
            result.stats.rows += layout.num_rows
            result.stats.row_width = max(result.stats.row_width, w)
            if measured:
                result.latency += self._execute_measured(layout, result.outputs)
            else:
                result.latency += self.cost_model.layout_time(layout)
        return result

    def _execute_measured(
        self, layout: BatchLayout, outputs: dict[int, list[int]]
    ) -> float:
        """Encode and greedy-decode *layout*; its tokens go into *outputs*.

        Every layout but a padded scheme's, slotted ones included, is
        encoded inside ``greedy_decode`` by the packed per-segment stack;
        Eq. 8 (``encode_layout(slotted=True)``) is the ablation's arm.
        """
        start = time.perf_counter()
        gen = self.model.greedy_decode(layout, self.max_new_tokens)
        outputs.update(gen.outputs)
        return time.perf_counter() - start

    @property
    def model(self):
        """The NumPy model MEASURED mode runs, built on first use."""
        if self._model is None:
            from repro.model.seq2seq import Seq2SeqModel

            cfg = self._model_config or ModelConfig.tiny(
                max_len=max(64, self.batch.row_length)
            )
            self._model = Seq2SeqModel(cfg, seed=self._model_seed)
        return self._model

    @model.setter
    def model(self, model) -> None:
        self._model = model

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def trace_annotations(self, result: BatchResult) -> dict[str, float]:
        """Per-batch compute-cost and memory-watermark annotations.

        Called by traced serving loops (``repro.obs``) after a
        successful slot: sums the cost model's component breakdown and
        the activation-memory watermark over the executed layouts.
        Priced in the engine so every scheme (naive, turbo, concat,
        slotted) annotates with its *own* layout structure.
        """
        if self._memory_sim is None:
            cfg = self._model_config or ModelConfig.paper()
            self._memory_sim = GPUMemorySimulator(
                cfg.d_model, max(1, cfg.num_encoder_layers + cfg.num_decoder_layers)
            )
        annotations: dict[str, float] = {}
        watermark = 0
        for layout in result.layouts:
            for key, value in self.cost_model.layout_breakdown(layout).items():
                annotations[key] = annotations.get(key, 0.0) + value
            watermark += self._memory_sim.watermark_bytes(layout)
        annotations["memory_watermark_bytes"] = float(watermark)
        return annotations

    def materialize_tokens(
        self,
        requests: Sequence[Request],
        seed: int = 0,
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> list[Request]:
        """Attach synthetic token ids (measured mode needs real tokens)."""
        cfg = self._model_config or ModelConfig.tiny(
            max_len=max(64, self.batch.row_length)
        )
        rng = ensure_rng(rng, default_seed=seed)
        return [
            r
            if r.tokens is not None
            else r.with_tokens(rng.integers(4, cfg.vocab_size, size=r.length))
            for r in requests
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(B={self.batch.num_rows}, "
            f"L={self.batch.row_length}, mode={self.mode.value})"
        )
