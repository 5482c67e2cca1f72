"""repro — a full reproduction of TCB (ICPP 2022).

TCB accelerates transformer inference services by (1) *ConcatBatching* —
concatenating variable-length requests inside batch rows with a
correctness-preserving masked self-attention and separate positional
encoding, (2) *slotted* ConcatBatching that removes the masked-out
redundancy, and (3) *DAS*, an online deadline-aware scheduler with an
``ηq/(ηq+1)`` competitive ratio.

Public API quick tour::

    from repro import (
        Request, BatchConfig, ModelConfig, SchedulerConfig,
        Seq2SeqModel, BatchLayout,
        DASScheduler, FCFSScheduler,
        ConcatEngine, SlottedConcatEngine, NaiveEngine, TurboEngine,
        ServingSimulator, WorkloadGenerator,
    )

See ``examples/quickstart.py`` for an end-to-end walkthrough.
"""

from repro.config import BatchConfig, ModelConfig, SchedulerConfig
from repro.types import Request, make_requests, total_utility

__version__ = "1.0.0"

__all__ = [
    "BatchConfig",
    "ModelConfig",
    "SchedulerConfig",
    "Request",
    "make_requests",
    "total_utility",
    "__version__",
]

# Heavier subsystems are imported lazily to keep `import repro` fast and to
# avoid import cycles; they are still re-exported at package level.

_LAZY = {
    "BatchLayout": ("repro.core.layout", "BatchLayout"),
    "Seq2SeqModel": ("repro.model.seq2seq", "Seq2SeqModel"),
    "ToyVocab": ("repro.model.vocab", "ToyVocab"),
    "NaiveEngine": ("repro.engine.naive", "NaiveEngine"),
    "TurboEngine": ("repro.engine.turbo", "TurboEngine"),
    "ConcatEngine": ("repro.engine.concat", "ConcatEngine"),
    "SlottedConcatEngine": ("repro.engine.slotted", "SlottedConcatEngine"),
    "GPUCostModel": ("repro.engine.cost_model", "GPUCostModel"),
    "GPUMemorySimulator": ("repro.engine.memory", "GPUMemorySimulator"),
    "DASScheduler": ("repro.scheduling.das", "DASScheduler"),
    "SlottedDASScheduler": ("repro.scheduling.slotted_das", "SlottedDASScheduler"),
    "FCFSScheduler": ("repro.scheduling.baselines", "FCFSScheduler"),
    "SJFScheduler": ("repro.scheduling.baselines", "SJFScheduler"),
    "DEFScheduler": ("repro.scheduling.baselines", "DEFScheduler"),
    "OracleScheduler": ("repro.scheduling.oracle", "OracleScheduler"),
    "ServingSimulator": ("repro.serving.simulator", "ServingSimulator"),
    "ClusterSimulator": ("repro.serving.cluster", "ClusterSimulator"),
    "AdmissionController": ("repro.serving.admission", "AdmissionController"),
    "TCBServer": ("repro.serving.server", "TCBServer"),
    "WorkloadGenerator": ("repro.workload.generator", "WorkloadGenerator"),
    "BurstyWorkload": ("repro.workload.burst", "BurstyWorkload"),
    "render_layout": ("repro.core.render", "render_layout"),
    "ContinuousBatchingSimulator": (
        "repro.serving.continuous",
        "ContinuousBatchingSimulator",
    ),
    "AutoscalingSimulator": ("repro.serving.autoscale", "AutoscalingSimulator"),
    "FaultConfig": ("repro.faults.plan", "FaultConfig"),
    "FaultPlan": ("repro.faults.plan", "FaultPlan"),
    "FaultyEngine": ("repro.faults.engine", "FaultyEngine"),
    "RetryPolicy": ("repro.faults.recovery", "RetryPolicy"),
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module, attr = _LAZY[name]
        return getattr(importlib.import_module(module), attr)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(set(__all__) | set(_LAZY))
