"""Experiment series: building the columns and printing them.

Every ``run_*`` harness returns ``{column_name: [values...]}``.
:func:`seed_means` fills such columns from a sweep — one value per
sweep point, averaged over seeds — and :func:`format_series_table`
renders a series as the aligned text table the benchmark suite prints
(and EXPERIMENTS.md embeds); :func:`series_to_csv` and
:func:`series_to_json` are the CLI's machine-readable forms of the same
columns.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Callable, Mapping, Sequence

__all__ = ["format_series_table", "seed_means", "series_to_csv", "series_to_json"]


def seed_means(
    xs: Sequence[Any],
    seeds: Sequence[int],
    point: Callable[[Any, int], Any],
    columns: Mapping[str, Callable[[Any], float]],
) -> dict[str, list[float]]:
    """Per sweep value in *xs*, each column's mean over *seeds*.

    ``point(x, seed)`` runs one cell and each of *columns* reads its
    figure off the result.  A column is summed from ``0.0`` in seed
    order, so a series does not depend on how the sweep is written.
    """
    series: dict[str, list[float]] = {c: [] for c in columns}
    for x in xs:
        sums = dict.fromkeys(columns, 0.0)
        for seed in seeds:
            cell = point(x, seed)
            for c, read in columns.items():
                sums[c] += read(cell)
        for c in columns:
            series[c].append(sums[c] / len(seeds))
    return series


def _columns(series: Mapping[str, Sequence[object]]) -> list[str]:
    """The column names; raises unless every column has the same length."""
    cols = list(series)
    if cols:
        n = len(series[cols[0]])
        for c in cols:
            if len(series[c]) != n:
                raise ValueError(
                    f"column {c!r} has {len(series[c])} rows, expected {n}"
                )
    return cols


def _fmt(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


def format_series_table(
    series: Mapping[str, Sequence[object]], title: str = ""
) -> str:
    cols = _columns(series)
    if not cols:
        return title
    n = len(series[cols[0]])
    rows = [[_fmt(series[c][i]) for c in cols] for i in range(n)]
    widths = [
        max(len(c), max((len(r[j]) for r in rows), default=0))
        for j, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.rjust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def series_to_csv(series: Mapping[str, Sequence[object]]) -> str:
    """Render a series dict as CSV text (header + rows)."""
    cols = _columns(series)
    if not cols:
        return ""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for i in range(len(series[cols[0]])):
        writer.writerow([series[c][i] for c in cols])
    return buf.getvalue()


def series_to_json(series: Mapping[str, Sequence[object]], indent: int = 2) -> str:
    """Render a series dict as a JSON object of column arrays."""
    _columns(series)
    return json.dumps({k: list(v) for k, v in series.items()}, indent=indent)
