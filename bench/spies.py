"""Proxy objects that record a span around a layer's public entry points.

Every per-layer number of the traced run comes from here: a spy wraps
an object the serving code receives through its constructor (scheduler,
engines, cost model, planes) or through a public attribute
(``server.model``), forwards everything to it, and opens a span around
each public method call.  The wrapped object and the code calling it
are unchanged, so the traced run does the same work as the untraced one
plus the spans.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

import numpy as np

from harness import Report, SpanRecorder, percentile


def _public_methods(target: Any) -> list[str]:
    cls = type(target)
    return [
        name
        for name in dir(target)
        if not name.startswith("_")
        and not isinstance(getattr(cls, name, None), property)
        and callable(getattr(target, name))
    ]


class Spy:
    """Forward everything to ``target``; span its public method calls.

    Wrapped methods live in the instance dict, so a call finds them by
    ordinary lookup; everything else — properties, private state the
    durability snapshot reads, attributes the serving code assigns
    (``scheduler.batch``, ``tracer.sink``) — goes to the target.
    """

    def __init__(
        self,
        target: Any,
        rec: SpanRecorder,
        prefix: str,
        methods: Optional[Iterable[str]] = None,
    ) -> None:
        d = self.__dict__
        d["_spy_target"] = target
        d["_spy_rec"] = rec
        for name in methods if methods is not None else _public_methods(target):
            d[name] = self._wrap(getattr(target, name), f"{prefix}.{name}", rec)

    @staticmethod
    def _wrap(fn, span_name: str, rec: SpanRecorder):
        begin, end = rec.begin, rec.end

        def call(*args, **kwargs):
            begin(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return call

    def __getattr__(self, name: str) -> Any:
        return getattr(self.__dict__["_spy_target"], name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self.__dict__["_spy_target"], name, value)


class SchedulerSpy(Spy):
    """Spans ``select`` and records what each decision saw and chose."""

    def __init__(self, target: Any, rec: SpanRecorder) -> None:
        super().__init__(target, rec, f"scheduling.{target.name}", methods=())
        d = self.__dict__
        d["_span"] = f"scheduling.{target.name}.select"
        d["depths"] = []
        d["fills"] = []
        # (selected requests, slot size) per decision, for the replay
        # of the packing and mask code on the inputs this run produced.
        d["selections"] = []

    def select(self, waiting, now: float = 0.0):
        target = self.__dict__["_spy_target"]
        rec = self.__dict__["_spy_rec"]
        rec.begin(self._span)
        try:
            decision = target.select(waiting, now)
        finally:
            rec.end()
        selected = decision.selected()
        self.depths.append(len(waiting))
        self.fills.append(
            sum(r.length for r in selected) / target.batch.capacity_tokens
        )
        if selected:
            self.selections.append((selected, decision.slot_size))
        return decision


class ModelSpy(Spy):
    """Spans the encoder and the decoder of ``Seq2SeqModel`` separately.

    ``greedy_decode`` without ``memory`` encodes first; the spy makes
    that call itself so the two phases become sibling spans.
    """

    def __init__(self, target: Any, rec: SpanRecorder) -> None:
        super().__init__(target, rec, "model", methods=())
        d = self.__dict__
        d["tokens_encoded"] = 0
        d["decode_steps"] = 0
        d["decode_widths"] = []

    def encode_layout(self, layout, **kwargs):
        rec = self.__dict__["_spy_rec"]
        rec.begin("model.encode")
        try:
            out = self.__dict__["_spy_target"].encode_layout(layout, **kwargs)
        finally:
            rec.end()
        self.__dict__["tokens_encoded"] += layout.useful_tokens
        return out

    def greedy_decode(self, layout, max_new_tokens: int = 16, *, memory=None):
        target = self.__dict__["_spy_target"]
        rec = self.__dict__["_spy_rec"]
        if layout.num_requests == 0:
            return target.greedy_decode(layout, max_new_tokens, memory=memory)
        if memory is None:
            memory = self.encode_layout(layout)
        rec.begin("model.decode")
        try:
            out = target.greedy_decode(layout, max_new_tokens, memory=memory)
        finally:
            rec.end()
        self.__dict__["decode_steps"] += out.steps_run
        segs = max(len(row.segments) for row in layout.rows)
        self.decode_widths.append(segs * (max_new_tokens + 1))
        return out

    def emit(self, report: Report) -> None:
        """The ``model.*`` metrics of everything this spy has seen."""
        rec = self.__dict__["_spy_rec"]
        for phase in ("encode", "decode"):
            name = f"model.{phase}"
            report.put(f"{name}_s", rec.total(name), "s", samples=rec.count(name))
        report.put("model.decode_steps", self.decode_steps, "count")
        report.put("model.tokens_encoded", self.tokens_encoded, "count")
        report.put("model.decode_width_mean", float(np.mean(self.decode_widths)), "count")


def emit_das(
    report: Report,
    rec: SpanRecorder,
    depths: list,
    fills: list,
    run_total_s: float,
) -> None:
    """The ``scheduling.das.*`` metrics over the spans recorded so far.

    ``depths`` and ``fills`` come from the ``SchedulerSpy``s, ``run_total_s``
    is the time of the spans ``select`` ran inside (server steps, engine
    passes, simulator runs), the base of ``select_share``.
    """
    selects = rec.durations("scheduling.das.select")
    report.put("scheduling.das.select_s", sum(selects), "s", samples=len(selects))
    report.put("scheduling.das.select_calls", len(selects), "count")
    report.put(
        "scheduling.das.select_p50_ms", percentile(selects, 50) * 1e3, "ms",
        samples=len(selects),
    )
    report.put("scheduling.das.select_share", sum(selects) / run_total_s, "share")
    report.put("scheduling.das.queue_depth_mean", float(np.mean(depths)), "count")
    report.put("scheduling.das.fill_share", float(np.mean(fills)), "share")


def engine_spy(engine: Any, rec: SpanRecorder) -> Spy:
    """Span ``serve`` of an engine; a fault wrapper counts as its own layer."""
    layer = "faults" if hasattr(engine, "fault_plan") else f"engine.{engine.name}"
    return Spy(engine, rec, layer, methods=("serve",))


def cost_model_spy(cost_model: Any, rec: SpanRecorder) -> Spy:
    return Spy(
        cost_model,
        rec,
        "engine.cost_model",
        methods=(
            "layout_time",
            "batch_time",
            "decode_step_time",
            "prefill_time",
            "layout_breakdown",
        ),
    )
