"""Ablation studies for TCB's design choices (beyond the paper's figures).

DESIGN.md calls out the knobs worth isolating; each function here
quantifies one of them:

- :func:`packing_policy_ablation` — Algorithm 1 packs rows in selection
  order; how much padding does first-fit / best-fit-decreasing recover?
- :func:`slot_policy_ablation` — Algorithm 2 derives the slot size from
  the utility-dominant set; compare against fixed slot counts.
- :func:`eta_q_ablation` — the η/q trade-off of Theorem 5.1 vs realised
  utility.
- :func:`early_cleaning_ablation` — byte-step savings of §4.2.2's early
  memory cleaning as slot count varies.
- :func:`concat_aware_ablation` — how much of DAS's edge over classic
  schedulers comes purely from concat-*awareness* (row filling).
- :func:`incremental_decode_ablation` — measured wall-clock of the
  model's KV-cached decode against :func:`recompute_decode`, the
  full-recompute baseline (also the oracle of the decode-equivalence
  tests).
- :func:`attention_kernel_ablation` — one packed backlog through the
  three encoder self-attention kernels: :func:`encode_full_width`
  (Eq. 5, also the oracle of the ragged-encoder tests), Eq. 8 slotted
  and the packed per-segment kernel production runs.
"""

from __future__ import annotations

import time
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.config import BatchConfig, ModelConfig, SchedulerConfig
from repro.core.layout import BatchLayout
from repro.core.masks import (
    block_diagonal_mask,
    causal_block_mask,
    cross_attention_mask,
)
from repro.core.packing import (
    pack_best_fit_decreasing,
    pack_first_fit,
    pack_in_order,
)
from repro.core.slotting import pack_into_slots, slot_size_fixed_count
from repro.engine.concat import ConcatEngine
from repro.engine.memory import GPUMemorySimulator
from repro.engine.slotted import SlottedConcatEngine
from repro.model.decoder import decode_stack
from repro.model.encoder import encode
from repro.model.generation import GenerationResult
from repro.model.seq2seq import Seq2SeqModel
from repro.scheduling.baselines import SJFScheduler
from repro.scheduling.das import DASScheduler
from repro.scheduling.slotted_das import SlottedDASScheduler
from repro.serving.metrics import ServingMetrics
from repro.serving.simulator import ServingSimulator
from repro.types import Request
from repro.workload.generator import LengthDistribution
from repro.experiments.serving_sweeps import make_workload
from repro.experiments.tables import seed_means

__all__ = [
    "packing_policy_ablation",
    "slot_policy_ablation",
    "eta_q_ablation",
    "early_cleaning_ablation",
    "concat_aware_ablation",
    "incremental_decode_ablation",
    "recompute_decode",
    "attention_kernel_ablation",
    "encode_full_width",
]


def packing_policy_ablation(
    *,
    num_rows: int = 16,
    row_length: int = 100,
    num_requests: int = 120,
    seeds: Sequence[int] = (0, 1, 2),
) -> dict[str, list[float]]:
    """Padding ratio and rejection rate of the three packing policies."""
    policies = {
        "in_order": pack_in_order,
        "first_fit": pack_first_fit,
        "best_fit_decreasing": pack_best_fit_decreasing,
    }
    out: dict[str, list[float]] = {
        "policy": list(policies),
        "padding_pct": [],
        "rejected_pct": [],
    }
    for name, packer in policies.items():
        pad, rej = [], []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            lengths = np.clip(
                np.rint(rng.normal(20, 20, size=num_requests)), 3, 100
            ).astype(int)
            reqs = [
                Request(request_id=i, length=int(l))
                for i, l in enumerate(lengths)
            ]
            res = packer(reqs, num_rows, row_length)
            pad.append(100 * res.layout.padding_ratio)
            rej.append(100 * res.num_rejected / num_requests)
        out["padding_pct"].append(float(np.mean(pad)))
        out["rejected_pct"].append(float(np.mean(rej)))
    return out


def _serve(scheduler, engine, workload) -> ServingMetrics:
    return ServingSimulator(scheduler, engine).run(workload).metrics


def slot_policy_ablation(
    *,
    rate: float = 1000.0,
    horizon: float = 8.0,
    seeds: Sequence[int] = (0, 1),
    fixed_counts: Sequence[int] = (1, 2, 4, 8),
) -> dict[str, list]:
    """Serving utility: Algorithm 2's adaptive slot size vs fixed counts."""
    batch = BatchConfig(num_rows=16, row_length=100)
    # Each policy's scheduler and engine serve every seed in turn.
    policies = {
        "adaptive (Alg. 2)": (
            SlottedDASScheduler(batch, SchedulerConfig()),
            SlottedConcatEngine(batch),
        ),
    }
    for n in fixed_counts:
        policies[f"fixed n={n}"] = (
            DASScheduler(batch, SchedulerConfig()),
            SlottedConcatEngine(batch, num_slots=n),
        )
    return {
        "policy": list(policies),
        **seed_means(
            list(policies.values()),
            seeds,
            lambda pair, seed: _serve(*pair, make_workload(rate, horizon=horizon, seed=seed)),
            {"utility": attrgetter("total_utility")},
        ),
    }


def eta_q_ablation(
    etas: Sequence[float] = (0.2, 0.35, 0.5, 0.65, 0.8),
    *,
    rate: float = 800.0,
    horizon: float = 8.0,
    seeds: Sequence[int] = (0, 1),
) -> dict[str, list[float]]:
    """Utility and theoretical bound across η (with q = 1 − η)."""
    batch = BatchConfig(num_rows=16, row_length=100)
    cfgs = [SchedulerConfig(eta=eta, q=round(1.0 - eta, 6)) for eta in etas]
    return {
        "eta": list(etas),
        **seed_means(
            cfgs,
            seeds,
            lambda cfg, seed: _serve(
                DASScheduler(batch, cfg),
                ConcatEngine(batch),
                make_workload(rate, horizon=horizon, seed=seed),
            ),
            {"utility": attrgetter("total_utility")},
        ),
        "bound": [cfg.competitive_ratio for cfg in cfgs],
    }


def early_cleaning_ablation(
    slot_counts: Sequence[int] = (1, 2, 4, 8),
    *,
    num_rows: int = 8,
    row_length: int = 64,
    seed: int = 0,
) -> dict[str, list[float]]:
    """Byte-step savings from early cleaning as slot count varies.

    Completion steps are sampled from a geometric-ish profile (outputs of
    different requests end at different decode steps — §4.2.2's
    observation); pure ConcatBatching (1 slot) saves nothing.
    """
    rng = np.random.default_rng(seed)
    mem = GPUMemorySimulator(d_model=64, num_layers=6)
    out: dict[str, list[float]] = {
        "slots": list(slot_counts),
        "savings_pct": [],
        "overlap_kb": [],
    }
    # The same concatenated workload throughout (8-token requests); only
    # the slot granularity changes.  Coarser slots free later because a
    # slot waits for the *last* of its requests.
    req_len = row_length // max(slot_counts)
    lengths = [req_len] * (row_length // req_len) * num_rows
    for n in slot_counts:
        z = slot_size_fixed_count(n, row_length)
        reqs = [Request(request_id=i, length=l) for i, l in enumerate(lengths)]
        res = pack_into_slots(reqs, num_rows, row_length, z)
        completion = {
            r.request_id: int(rng.integers(1, 17)) for r in res.packed
        }
        report = mem.simulate(res.layout, completion, early_cleaning=True)
        out["savings_pct"].append(100 * report.savings_ratio)
        out["overlap_kb"].append(report.overlap_bytes / 1024)
    return out


def concat_aware_ablation(
    *,
    rate: float = 1000.0,
    horizon: float = 8.0,
    seeds: Sequence[int] = (0, 1),
) -> dict[str, list]:
    """Decompose DAS's advantage: ordering policy vs concat-awareness."""
    batch = BatchConfig(num_rows=16, row_length=100)
    settings = {
        "DAS (concat-aware)": DASScheduler(batch, SchedulerConfig()),
        "SJF concat-aware": SJFScheduler(batch, concat_aware=True),
        "SJF classic": SJFScheduler(batch, concat_aware=False),
    }
    return {
        "scheduler": list(settings),
        **seed_means(
            list(settings.values()),
            seeds,
            lambda sched, seed: _serve(
                sched, ConcatEngine(batch), make_workload(rate, horizon=horizon, seed=seed)
            ),
            {"utility": attrgetter("total_utility")},
        ),
    }


def das_components_ablation(
    *,
    rate: float = 300.0,
    horizon: float = 8.0,
    seeds: Sequence[int] = (0, 1),
    base_slack: float = 0.8,
    jitter: float = 1.5,
) -> dict[str, list]:
    """Decompose DAS: utility part vs deadline part (§5.2's motivation).

    Compares, on a deadline-tight workload, concat-aware variants that
    use only one of DAS's two ingredients:

    - ``utility-only`` — pure utility ordering (SJF with row filling;
      what DAS's N^U alone would do),
    - ``deadline-only`` — pure EDF ordering (DEF with row filling; N^D
      alone),
    - ``DAS`` — the full mix.

    Reported per policy: total utility and deadline-miss rate.  DAS is
    expected to track utility-only's utility while cutting misses toward
    deadline-only's level.
    """
    batch = BatchConfig(num_rows=16, row_length=100)
    from repro.scheduling.baselines import DEFScheduler
    from repro.workload.deadlines import DeadlineModel
    from repro.workload.generator import LengthDistribution, WorkloadGenerator

    def wl(seed: int) -> WorkloadGenerator:
        return WorkloadGenerator(
            rate=rate,
            lengths=LengthDistribution(
                family="normal", mean=20, spread=20, low=3, high=100
            ),
            deadlines=DeadlineModel(base_slack=base_slack, jitter=jitter),
            horizon=horizon,
            seed=seed,
        )

    policies = {
        "utility-only": lambda: SJFScheduler(batch, concat_aware=True),
        "deadline-only": lambda: DEFScheduler(batch, concat_aware=True),
        "DAS": lambda: DASScheduler(batch, SchedulerConfig()),
    }
    return {
        "policy": list(policies),
        **seed_means(
            list(policies.values()),
            seeds,
            lambda mk, seed: _serve(mk(), ConcatEngine(batch), wl(seed)),
            {
                "utility": attrgetter("total_utility"),
                "miss_pct": lambda m: 100 * m.miss_rate,
            },
        ),
    }


def recompute_decode(
    model: Seq2SeqModel,
    layout: BatchLayout,
    max_new_tokens: int = 16,
) -> GenerationResult:
    """Decode without a KV cache: re-run the decoder stack every step.

    The decoder mirrors the encoder layout: segment ``i`` of a row owns
    the decoder positions ``[i * budget, (i + 1) * budget)`` with
    ``budget = max_new_tokens + 1``, and the concat-aware causal and
    cross masks keep requests apart.  Simple, obviously correct and
    O(steps²): the baseline :func:`incremental_decode_ablation` times
    :meth:`Seq2SeqModel.greedy_decode` against, and the oracle its
    tests compare with.
    """
    cfg = model.config
    if layout.num_requests == 0:
        return GenerationResult()
    memory = model.encode_layout(layout)
    enc_seg = layout.segment_id_matrix()
    budget = max_new_tokens + 1
    width = max(len(row.segments) for row in layout.rows) * budget
    dec_tokens = np.full((layout.num_rows, width), cfg.pad_token, dtype=np.int64)
    dec_seg = np.full((layout.num_rows, width), -1, dtype=np.int64)
    dec_pos = np.zeros((layout.num_rows, width), dtype=np.int64)

    # Active requests in row-major order: (request id, row, next position).
    active: list[tuple[int, int, int]] = []
    for k, row in enumerate(layout.rows):
        for i, seg in enumerate(row.segments):
            rid = seg.request.request_id
            active.append((rid, k, i * budget + 1))
            dec_tokens[k, i * budget] = cfg.bos_token
            dec_seg[k, i * budget] = rid
    result = GenerationResult(
        outputs={rid: [] for rid, _, _ in active},
        completion_step={rid: 0 for rid, _, _ in active},
    )

    for step in range(1, max_new_tokens + 1):
        if not active:
            break
        result.steps_run = step
        hidden = decode_stack(
            model.params.decoder_layers,
            cfg.num_heads,
            model.embed(dec_tokens, dec_pos),
            memory,
            causal_block_mask(dec_seg),
            cross_attention_mask(dec_seg, enc_seg),
        )
        logits = model.project_logits(hidden)
        rows = [k for _, k, _ in active]
        last = [nxt - 1 for _, _, nxt in active]
        survivors = []
        tokens = logits[rows, last].argmax(axis=-1).tolist()
        for (rid, k, nxt), token in zip(active, tokens):
            result.outputs[rid].append(token)
            if token == cfg.eos_token or step == max_new_tokens:
                result.completion_step[rid] = step
            else:
                dec_tokens[k, nxt] = token
                dec_seg[k, nxt] = rid
                dec_pos[k, nxt] = step
                survivors.append((rid, k, nxt + 1))
        active = survivors
    return result


def incremental_decode_ablation(
    decode_lengths: Sequence[int] = (4, 8, 16),
    *,
    seed: int = 0,
) -> dict[str, list[float]]:
    """Measured decode wall-time: full recompute vs the model's KV-cached decode."""
    cfg = ModelConfig.tiny()
    model = Seq2SeqModel(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    reqs = [
        Request(
            request_id=i,
            length=6,
            tokens=tuple(int(t) for t in rng.integers(4, cfg.vocab_size, size=6)),
        )
        for i in range(8)
    ]
    layout = pack_first_fit(reqs, num_rows=2, row_length=24).layout
    out: dict[str, list[float]] = {
        "max_new_tokens": list(decode_lengths),
        "recompute_ms": [],
        "kv_cached_ms": [],
        "speedup": [],
    }
    for t in decode_lengths:
        t0 = time.perf_counter()
        full = recompute_decode(model, layout, max_new_tokens=t)
        t_full = time.perf_counter() - t0
        t0 = time.perf_counter()
        cached = model.greedy_decode(layout, max_new_tokens=t)
        t_cached = time.perf_counter() - t0
        if full != cached:
            raise RuntimeError("KV-cached decode diverged from recompute")
        out["recompute_ms"].append(1e3 * t_full)
        out["kv_cached_ms"].append(1e3 * t_cached)
        out["speedup"].append(t_full / t_cached if t_cached > 0 else float("inf"))
    return out


def encode_full_width(model: Seq2SeqModel, layout: BatchLayout) -> np.ndarray:
    """Eq. 5 literally: the dense encoder stack under the mask of Eq. 6.

    Every row computes one ``W × W`` score matrix per head — off-diagonal
    blocks and padding included — and every padding position goes
    through the linears.  Simple, obviously the paper's formula, and
    not a production path: the baseline arm of
    :func:`attention_kernel_ablation` and the oracle the ragged-encoder
    tests compare :meth:`Seq2SeqModel.encode_layout` with.
    """
    cfg = model.config
    x = model.embed(
        layout.token_matrix(pad_token=cfg.pad_token), layout.position_matrix()
    )
    mask = block_diagonal_mask(layout.segment_id_matrix())
    return encode(model.params.encoder_layers, cfg.num_heads, x, mask)


def attention_kernel_ablation(
    *,
    num_rows: int = 10,
    row_length: int = 400,
    slot_size: int = 100,
    seed: int = 0,
    repeats: int = 3,
) -> dict[str, list]:
    """Measured encoder wall-time of one packed batch under each kernel.

    A backlog of §6.2.1 lengths is packed once into slots (so all three
    kernels accept the layout) and encoded by Eq. 5 full-width, Eq. 8
    slot-wise and the packed per-segment kernel.  ``score_elements`` is
    how many ``QKᵀ`` entries an encode computes (all layers and heads):
    ``B·W²``, ``B·Σz²`` and ``Σℓ²`` per layer and head respectively.
    ``max_abs_diff`` is against Eq. 5 on the useful positions; a kernel
    that disagrees raises.
    """
    cfg = ModelConfig(
        vocab_size=256,
        d_model=128,
        num_heads=4,
        num_encoder_layers=2,
        num_decoder_layers=2,
        max_len=row_length,
    )
    model = Seq2SeqModel(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    lengths = LengthDistribution("normal", 20.0, 10.0, 3, min(100, slot_size)).sample(
        num_rows * row_length // 10, rng
    )
    reqs = [
        Request(
            request_id=i,
            length=int(n),
            tokens=tuple(int(t) for t in rng.integers(4, cfg.vocab_size, size=n)),
        )
        for i, n in enumerate(lengths)
    ]
    layout = pack_into_slots(reqs, num_rows, row_length, slot_size).layout
    index = layout.segment_index()
    useful = index.coords()
    w = layout.effective_width
    slots = [min(b, w) - a for a, b in layout.slot_boundaries()[0] if a < w]
    # kernel -> (encode, score elements per layer and head)
    kernels = {
        "Eq. 5 full-width": (
            lambda: encode_full_width(model, layout),
            num_rows * w * w,
        ),
        "Eq. 8 slotted": (
            lambda: model.encode_layout(layout, slotted=True),
            num_rows * sum(z * z for z in slots),
        ),
        "packed per-segment": (
            lambda: model.encode_layout(layout),
            int((index.lengths**2).sum()),
        ),
    }
    out: dict[str, list] = {
        "kernel": list(kernels),
        "encode_ms": [],
        "score_elements": [],
        "max_abs_diff": [],
    }
    oracle = None
    for name, (run, scores) in kernels.items():
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            states = run()[useful]
            best = min(best, time.perf_counter() - t0)
        if oracle is None:
            oracle = states
        diff = float(np.abs(states - oracle).max())
        if not diff <= 1e-9:
            raise RuntimeError(f"{name} diverged from Eq. 5 by {diff:.3e}")
        out["encode_ms"].append(1e3 * best)
        out["score_elements"].append(cfg.num_encoder_layers * cfg.num_heads * scores)
        out["max_abs_diff"].append(f"{diff:.1e}")
    return out
