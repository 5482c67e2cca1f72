"""Run every figure (and optionally every ablation) in one call.

``run_all_figures()`` regenerates the whole evaluation section and
returns ``{figure_id: series}``; ``write_report()`` renders them as one
markdown-ish text report (tables + ASCII charts) — what the CLI's
``figure all`` emits.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.analysis.ascii_plot import ascii_chart
from repro.experiments.tables import format_series_table

__all__ = ["run_all_figures", "run_all_ablations", "write_report"]


def _figure_runners(fast: bool) -> dict[str, Callable[[], dict]]:
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

    kw = {"horizon": 4.0, "seeds": (0,)} if fast else {"horizon": 10.0, "seeds": (0, 1)}
    return {
        "fig9": lambda: run_fig09_utility(**kw),
        "fig10": lambda: run_fig10_throughput(**kw),
        "fig11": lambda: run_fig11_fig12_fcfs(20.0, **kw),
        "fig12": lambda: run_fig11_fig12_fcfs(100.0, **kw),
        "fig13": lambda: run_fig13_fig14_slot_speedup(10),
        "fig14": lambda: run_fig13_fig14_slot_speedup(32),
        "fig15a": lambda: run_fig15a_batch_size(**kw),
        "fig15b": lambda: run_fig15b_variance(**kw),
        "fig15c": lambda: run_fig15c_row_length(**kw),
        "fig16": lambda: run_fig16_overhead(**kw),
    }


def run_all_figures(*, fast: bool = False) -> dict[str, dict]:
    """Regenerate every paper figure; returns ``{figure_id: series}``."""
    return {name: run() for name, run in _figure_runners(fast).items()}


def run_all_ablations() -> dict[str, dict]:
    from repro.experiments import ablations as ab

    return {
        "packing": ab.packing_policy_ablation(),
        "slots": ab.slot_policy_ablation(seeds=(0,)),
        "eta-q": ab.eta_q_ablation(seeds=(0,)),
        "memory": ab.early_cleaning_ablation(),
        "awareness": ab.concat_aware_ablation(seeds=(0,)),
        "kv-cache": ab.incremental_decode_ablation(),
        "attention-kernel": ab.attention_kernel_ablation(),
    }


_X_KEYS = {
    "fig9": "rate",
    "fig10": "rate",
    "fig11": "rate",
    "fig12": "rate",
    "fig13": "slots",
    "fig14": "slots",
    "fig15a": "batch_size",
    "fig15b": "spread",
    "fig15c": "row_length",
    "fig16": "rate",
}


def write_report(
    results: dict[str, dict], *, charts: bool = True
) -> str:
    """Render a combined text report for a ``run_all_figures`` result."""
    parts: list[str] = ["# TCB reproduction — full figure sweep", ""]
    for name, series in results.items():
        parts.append(format_series_table(series, f"## {name}"))
        if charts:
            x_key = _X_KEYS.get(name)
            parts.append("")
            parts.append(ascii_chart(series, x_key=x_key))
        parts.append("")
    return "\n".join(parts)
