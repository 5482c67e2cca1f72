"""Command-line interface: regenerate paper figures and ablations.

Usage::

    python -m repro list
    python -m repro figure fig10 [--fast] [--format table|csv|json] [--out F]
    python -m repro ablation packing [--format ...]
    python -m repro demo
    python -m repro info
    python -m repro trace fig13 [--fast] [--format chrome|csv|ascii] [--out F]

``--fast`` shrinks horizons/seeds so every figure runs in seconds —
useful for smoke runs; the published numbers come from the defaults.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional

from repro.experiments.tables import format_series_table, series_to_csv, series_to_json

__all__ = ["main", "available_figures", "available_ablations"]


def _figures() -> dict[str, tuple[str, Callable[[bool], dict]]]:
    from repro.experiments import (
        run_fig09_utility,
        run_fig10_throughput,
        run_fig11_fig12_fcfs,
        run_fig13_fig14_slot_speedup,
        run_fig15a_batch_size,
        run_fig15b_variance,
        run_fig15c_row_length,
        run_fig16_overhead,
    )

    def serving_kw(fast: bool) -> dict:
        return {"horizon": 4.0, "seeds": (0,)} if fast else {"horizon": 10.0, "seeds": (0, 1)}

    return {
        "fig9": (
            "utility vs arrival rate (DAS)",
            lambda fast: run_fig09_utility(**serving_kw(fast)),
        ),
        "fig10": (
            "throughput vs arrival rate (DAS)",
            lambda fast: run_fig10_throughput(**serving_kw(fast)),
        ),
        "fig11": (
            "FCFS throughput vs rate, σ=20",
            lambda fast: run_fig11_fig12_fcfs(20.0, **serving_kw(fast)),
        ),
        "fig12": (
            "FCFS throughput vs rate, σ=100",
            lambda fast: run_fig11_fig12_fcfs(100.0, **serving_kw(fast)),
        ),
        "fig13": (
            "slotted speedup, batch 10",
            lambda fast: run_fig13_fig14_slot_speedup(10),
        ),
        "fig14": (
            "slotted speedup, batch 32",
            lambda fast: run_fig13_fig14_slot_speedup(32),
        ),
        "fig15a": (
            "scheduler comparison vs batch size",
            lambda fast: run_fig15a_batch_size(**serving_kw(fast)),
        ),
        "fig15b": (
            "scheduler comparison vs length spread",
            lambda fast: run_fig15b_variance(**serving_kw(fast)),
        ),
        "fig15c": (
            "scheduler comparison vs row length",
            lambda fast: run_fig15c_row_length(**serving_kw(fast)),
        ),
        "fig16": (
            "DAS overhead ratio",
            lambda fast: run_fig16_overhead(**serving_kw(fast)),
        ),
    }


def _ablations() -> dict[str, tuple[str, Callable[[], dict]]]:
    from repro.experiments import ablations as ab

    return {
        "packing": ("row-packing policies", ab.packing_policy_ablation),
        "slots": ("slot-size policies", ab.slot_policy_ablation),
        "eta-q": ("DAS η/q sweep", ab.eta_q_ablation),
        "memory": ("early memory cleaning", ab.early_cleaning_ablation),
        "awareness": ("concat-awareness decomposition", ab.concat_aware_ablation),
        "kv-cache": ("KV-cached vs recompute decode", ab.incremental_decode_ablation),
        "attention-kernel": (
            "Eq. 5 vs Eq. 8 vs packed encoder attention",
            ab.attention_kernel_ablation,
        ),
        "das-components": ("DAS ingredient decomposition", ab.das_components_ablation),
        "sensitivity": ("cost-model sensitivity sweep", _run_sensitivity),
        "faults": ("serving under injected faults", _run_faults),
        "overload": ("goodput vs offered load, shedding off/on", _run_overload),
        "recovery": ("crash/restore cost vs checkpoint interval", _run_recovery),
        "tail": ("hedged dispatch vs straggler severity", _run_tail),
        "tenancy": ("noisy-neighbor isolation vs batch-tenant ramp", _run_tenancy),
    }


def _run_sensitivity():
    from repro.experiments.sensitivity import sensitivity_sweep

    return sensitivity_sweep(seeds=(0,))


def _run_faults():
    from repro.experiments.fault_tolerance import run_fault_tolerance

    return run_fault_tolerance(seeds=(0, 1))


def _run_overload():
    from repro.experiments.overload import run_overload

    return run_overload(seeds=(0, 1))


def _run_recovery():
    from repro.experiments.recovery import run_recovery

    return run_recovery(seeds=(0, 1))


def _run_tail():
    from repro.experiments.tail_tolerance import run_tail

    return run_tail(seeds=(0, 1))


def _run_tenancy():
    from repro.experiments.tenancy import run_tenancy

    return run_tenancy(seeds=(0, 1))


def available_figures() -> list[str]:
    return list(_figures())


def available_ablations() -> list[str]:
    return list(_ablations())


def _emit(series: dict, fmt: str, title: str, out: Optional[str]) -> None:
    if fmt == "table":
        text = format_series_table(series, title)
    elif fmt == "csv":
        text = series_to_csv(series)
    elif fmt == "json":
        text = series_to_json(series)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(fmt)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {out}")
    else:
        print(text)


def _cmd_list(_args) -> int:
    from repro.experiments.traced import _TRACED

    print("figures:")
    for name, (desc, _) in _figures().items():
        print(f"  {name:8s} {desc}")
    print("ablations:")
    for name, (desc, _) in _ablations().items():
        print(f"  {name:8s} {desc}")
    print("traces:")
    for name, (desc, _) in _TRACED.items():
        print(f"  {name:10s} {desc}")
    return 0


def _cmd_figure(args) -> int:
    if args.name == "all":
        from repro.experiments.runner import run_all_figures, write_report

        report = write_report(run_all_figures(fast=args.fast))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(report + "\n")
            print(f"wrote {args.out}")
        else:
            print(report)
        return 0
    figures = _figures()
    if args.name not in figures:
        print(f"unknown figure {args.name!r}; try `python -m repro list`", file=sys.stderr)
        return 2
    desc, runner = figures[args.name]
    series = runner(args.fast)
    _emit(series, args.format, f"{args.name} — {desc}", args.out)
    return 0


def _cmd_ablation(args) -> int:
    ablations = _ablations()
    if args.name not in ablations:
        print(f"unknown ablation {args.name!r}; try `python -m repro list`", file=sys.stderr)
        return 2
    desc, runner = ablations[args.name]
    series = runner()
    _emit(series, args.format, f"ablation {args.name} — {desc}", args.out)
    return 0


def _cmd_demo(_args) -> int:
    import numpy as np

    from repro.config import BatchConfig, ModelConfig
    from repro.model.vocab import ToyVocab
    from repro.serving.server import TCBServer

    vocab = ToyVocab()
    server = TCBServer(
        model_config=ModelConfig.tiny(vocab_size=vocab.size, max_len=64),
        batch=BatchConfig(num_rows=4, row_length=32),
        max_new_tokens=6,
    )
    rng = np.random.default_rng(0)
    sentences = [vocab.random_sentence(int(rng.integers(3, 12)), rng) for _ in range(6)]
    rids = [server.submit(vocab.encode(s)) for s in sentences]
    server.run_until_drained()
    for s, rid in zip(sentences, rids):
        resp = server.poll(rid)
        print(f"in : {s}")
        print(f"out: {vocab.decode(resp.output_tokens)}  ({resp.latency*1e3:.1f} ms)")
    return 0


def _cmd_trace(args) -> int:
    from repro.experiments.traced import available_traces, run_traced
    from repro.obs.export import (
        ascii_timeline,
        chrome_trace_json,
        spans_to_csv,
    )

    if args.name not in available_traces():
        print(
            f"unknown traced experiment {args.name!r}; "
            "try `python -m repro list`",
            file=sys.stderr,
        )
        return 2
    run = run_traced(args.name, fast=args.fast)
    if args.format == "chrome":
        text = chrome_trace_json(run.tracer)
    elif args.format == "csv":
        text = spans_to_csv(run.tracer)
    else:
        text = ascii_timeline(run.tracer)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        counts = run.tracer.outcome_counts()
        summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"wrote {args.out} ({run.tracer.num_requests} requests; {summary})")
    else:
        print(text)
    return 0


def _cmd_info(_args) -> int:
    import repro
    from repro.config import ModelConfig
    from repro.engine.cost_model import GPUCostModel
    from repro.model.params import init_seq2seq

    print(f"repro {repro.__version__} — TCB (ICPP 2022) reproduction")
    cfg = ModelConfig.paper()
    print(
        f"paper model: {cfg.num_encoder_layers}+{cfg.num_decoder_layers} layers, "
        f"d_model={cfg.d_model}, heads={cfg.num_heads}, max_len={cfg.max_len}"
    )
    tiny = init_seq2seq(ModelConfig.tiny(), seed=0)
    print(f"tiny test model parameters: {tiny.num_parameters():,}")
    print(f"calibrated cost model: {GPUCostModel.calibrated()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TCB (ICPP 2022) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available figures and ablations").set_defaults(
        func=_cmd_list
    )

    p_fig = sub.add_parser("figure", help="regenerate a paper figure's series")
    p_fig.add_argument("name", help="figure id, e.g. fig10")
    p_fig.add_argument("--fast", action="store_true", help="short horizon, one seed")
    p_fig.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_fig.add_argument("--out", help="write to file instead of stdout")
    p_fig.set_defaults(func=_cmd_figure)

    p_ab = sub.add_parser("ablation", help="run an ablation study")
    p_ab.add_argument("name", help="ablation id, e.g. packing")
    p_ab.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_ab.add_argument("--out", help="write to file instead of stdout")
    p_ab.set_defaults(func=_cmd_ablation)

    p_tr = sub.add_parser(
        "trace", help="run a traced experiment and export its spans"
    )
    p_tr.add_argument("name", help="traced experiment id, e.g. fig13")
    p_tr.add_argument("--fast", action="store_true", help="short horizon")
    p_tr.add_argument(
        "--format",
        choices=("chrome", "csv", "ascii"),
        default="chrome",
        help="chrome = trace_event JSON for chrome://tracing / Perfetto",
    )
    p_tr.add_argument("--out", help="write to file instead of stdout")
    p_tr.set_defaults(func=_cmd_trace)

    sub.add_parser("demo", help="run the online server demo").set_defaults(
        func=_cmd_demo
    )
    sub.add_parser("info", help="print version / configuration info").set_defaults(
        func=_cmd_info
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout was closed early (e.g. piping into `head`) — not an error.
        return 0
