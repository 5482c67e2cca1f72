"""Replay of recorded inputs through the ``core`` layer and the queue.

``TCBServer`` and the engines call the packing, layout, mask and
attention functions by module-level name, so no proxy can sit in front
of them.  The traced run therefore records what the scheduler selected
and, after the workload, feeds the same selections through the same
functions under spans of their own.  Attention tensors are random: the
kernels' time depends on shapes and masks, not on values.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from harness import Report, SpanRecorder, now
from repro.core.concat_attention import att_cb, att_cb_reference, att_cb_s
from repro.core.masks import (
    block_diagonal_mask,
    causal_block_mask,
    cross_attention_mask,
)
from repro.core.slotting import pack_into_slots
from repro.scheduling.queue import RequestQueue
from repro.types import Request

Selection = tuple[list[Request], Optional[int]]


def replay_core(
    rec: SpanRecorder,
    report: Report,
    selections: Sequence[Selection],
    packer: Callable,
    num_rows: int,
    row_length: int,
    *,
    heads: int = 0,
    head_dim: int = 0,
    decode_budget: int = 0,
) -> None:
    """Time packing, layout lowering, masks and attention on ``selections``.

    ``heads == 0`` (the simulator workloads, whose requests carry no
    tokens and whose engines never run attention) stops after the
    packing and layout spans.
    """
    rng = np.random.default_rng(0)
    flops_cb = flops_cbs = bytes_cb = 0
    with rec.span("bench.replay_core"):
        for selected, slot_size in selections:
            with rec.span("core.packing.pack"):
                layout = packer(selected, num_rows, row_length).layout
            z = slot_size or max(r.length for r in selected)
            with rec.span("core.slotting.pack"):
                slotted = pack_into_slots(selected, num_rows, row_length, z).layout
            with rec.span("core.layout.matrices"):
                seg = layout.segment_id_matrix()
                layout.position_matrix()
                if selected[0].tokens is not None:
                    layout.token_matrix()
            if not heads:
                continue
            b, w = seg.shape
            with rec.span("core.masks.build"):
                mask = block_diagonal_mask(seg)
                if decode_budget:
                    segs = max(len(row.segments) for row in layout.rows)
                    dec = np.full((b, segs * decode_budget), -1, dtype=np.int64)
                    for k, row in enumerate(layout.rows):
                        for i, s in enumerate(row.segments):
                            dec[k, i * decode_budget : (i + 1) * decode_budget] = (
                                s.request.request_id
                            )
                    causal_block_mask(dec)
                    cross_attention_mask(dec, seg)
            q, k, v = (rng.standard_normal((b, heads, w, head_dim)) for _ in range(3))
            with rec.span("core.att_cb.call"):
                att_cb(q, k, v, mask[:, None, :, :])
            flops_cb += 4 * b * heads * w * w * head_dim
            bytes_cb += 8 * (4 * b * heads * w * head_dim + 2 * b * heads * w * w + b * w * w)

            sseg = slotted.segment_id_matrix()
            sw = sseg.shape[1]
            spans = [(a, min(e, sw)) for a, e in slotted.slot_boundaries()[0] if a < sw]
            smasks = [block_diagonal_mask(sseg[:, a:e])[:, None, :, :] for a, e in spans]
            qs, ks, vs = (
                rng.standard_normal((b, heads, sw, head_dim)) for _ in range(3)
            )
            with rec.span("core.att_cb_s.call"):
                att_cb_s(qs, ks, vs, spans, smasks)
            flops_cbs += 4 * b * heads * head_dim * sum((e - a) ** 2 for a, e in spans)
            with rec.span("core.att_cb_reference.call"):
                att_cb_reference(q[:, 0], k[:, 0], v[:, 0], seg)

    for key in (
        "core.packing.pack",
        "core.slotting.pack",
        "core.layout.matrices",
        "core.masks.build",
        "core.att_cb.call",
        "core.att_cb_s.call",
        "core.att_cb_reference.call",
    ):
        report.put(f"{key}_s", rec.total(key), "s", samples=rec.count(key))
    report.put("core.packing.calls", rec.count("core.packing.pack"), "count")
    report.put("core.att_cb.flops", flops_cb, "count")
    report.put("core.att_cb_s.flops", flops_cbs, "count")
    # Computed from tensor sizes (q, k, v, out, scores written and read,
    # mask), not measured: a CPU run has no memory-traffic counter.
    report.put("core.att_cb.bytes_computed", bytes_cb, "bytes")


def queue_churn(requests: Sequence[Request]) -> int:
    """add / expire / waiting / take / requeue / abandon on a bare queue.

    Shaped like a serving loop under load; returns the operation count.
    """
    queue = RequestQueue()
    ops = 0
    current = 0.0
    for i, r in enumerate(requests):
        queue.add(r)
        current = r.arrival
        ops += 1
        if i % 5 == 0:
            queue.queue_delay(current)
            ops += 1
        if i % 64 == 63:
            queue.expire(current)
            ops += 1
        if i % 97 == 96:
            taken = queue.take(list(queue.waiting(current)[:8]))
            queue.requeue(taken[::2])
            queue.abandon(taken[1::2])
            ops += 4
    queue.expire(float("inf"))
    return ops + 1


def replay_queue(
    rec: SpanRecorder, report: Report, requests: Sequence[Request], repeats: int = 3
) -> None:
    """``scheduling.queue.churn_ops_per_s`` on this run's own requests."""
    rates = []
    with rec.span("bench.replay_queue"):
        for _ in range(repeats):
            with rec.span("scheduling.queue.churn"):
                t = now()
                ops = queue_churn(requests)
                rates.append(ops / (now() - t))
    report.put(
        "scheduling.queue.churn_ops_per_s", float(np.median(rates)), "1/s",
        samples=repeats,
    )
