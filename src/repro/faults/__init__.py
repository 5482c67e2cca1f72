"""Fault injection and recovery for the serving loops.

The paper's serving loop (Fig. 3) assumes a perfectly reliable engine;
production fleets do not get one.  This package makes failure a
first-class, *deterministic* input to the simulators:

- :class:`~repro.faults.plan.FaultPlan` — a seeded per-slot fault
  schedule (batch failure, straggler, transient OOM, engine crash),
- :class:`~repro.faults.engine.FaultyEngine` — wraps any engine and
  surfaces faults as typed outcomes
  (:class:`~repro.faults.outcomes.BatchFailure`,
  :class:`~repro.faults.outcomes.EngineDown`) instead of silent success,
- :mod:`~repro.faults.recovery` — bounded deadline-aware requeue,
  split-batch retry on OOM, and the slot driver shared by the loops.

See ``docs/faults.md`` for the fault model and its determinism
guarantees, and ``benchmarks/test_ext_fault_tolerance.py`` for the
chaos sweep showing DAS degrades gracefully under rising fault rates.
"""

from repro.faults.engine import FaultyEngine
from repro.faults.outcomes import BatchFailure, EngineDown, FaultOutcome
from repro.faults.plan import (
    FaultConfig,
    FaultConfigError,
    FaultEvent,
    FaultKind,
    FaultPlan,
)
from repro.faults.recovery import RetryPolicy, SlotOutcome, serve_slot

__all__ = [
    "FaultConfig",
    "FaultConfigError",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultyEngine",
    "FaultOutcome",
    "BatchFailure",
    "EngineDown",
    "RetryPolicy",
    "SlotOutcome",
    "serve_slot",
]
