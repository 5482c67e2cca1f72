"""Analysis utilities for experiment series.

Helpers used by the benchmark suite and EXPERIMENTS.md generation:
saturation detection (where a throughput curve flattens), gap/crossover
computation between systems, fairness indices and terminal charts.
CSV/JSON export of series lives beside the table renderer in
:mod:`repro.experiments.tables`.
"""

from repro.analysis.curves import (
    crossover_rate,
    max_gap,
    saturation_point,
    saturated_value,
)
from repro.analysis.fairness import (
    jain_index,
    service_rate_by_length,
    service_rate_by_tenant,
    tenant_jain_index,
)
from repro.analysis.ascii_plot import ascii_chart, sparkline

__all__ = [
    "saturation_point",
    "saturated_value",
    "max_gap",
    "crossover_rate",
    "jain_index",
    "service_rate_by_length",
    "service_rate_by_tenant",
    "tenant_jain_index",
    "ascii_chart",
    "sparkline",
]
