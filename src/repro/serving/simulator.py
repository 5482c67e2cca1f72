"""Discrete-event serving simulator (the loop of paper Fig. 3).

The clock advances in *engine slots*: whenever the (simulated) GPU is
idle, arrivals up to ``now`` are admitted, expired requests are dropped,
the scheduler packs a batch from ``N_t`` and the engine executes it; the
clock then jumps by the batch's inference latency.  When the queue is
empty, the clock fast-forwards to the next arrival.

The same loop serves every (scheduler × engine) combination in the
paper's evaluation; see the ``benchmarks/`` directory for the sweeps.
It is :class:`~repro.serving.cluster.ClusterSimulator` over one engine.

Beyond the paper, the loop is fault-tolerant: engines wrapped in
:class:`~repro.faults.engine.FaultyEngine` surface batch failures,
transient OOM and crashes as typed outcomes, which the loop answers
with split-batch retry, bounded deadline-aware requeue, and clock
advancement through crash downtime (see ``docs/faults.md``).  An
optional :class:`~repro.serving.admission.AdmissionController` sheds
hopeless requests at arrival; its rejections are folded into the
metrics so the conservation invariant
``served + expired + rejected + abandoned == arrived`` holds on every
run.
"""

from __future__ import annotations

from typing import Optional

from repro.durability.plane import DurabilityPlane
from repro.engine.base import InferenceEngine
from repro.faults.recovery import RetryPolicy
from repro.obs.recorder import Tracer
from repro.overload.controller import OverloadController
from repro.scheduling.base import Scheduler
from repro.serving.admission import AdmissionController
from repro.serving.cluster import ClusterSimulator, SimulationResult
from repro.tenancy.plane import TenancyPlane

__all__ = ["ServingSimulator", "SimulationResult"]


class ServingSimulator(ClusterSimulator):
    """Wire a workload, scheduler and engine into one serving run."""

    def __init__(
        self,
        scheduler: Scheduler,
        engine: InferenceEngine,
        *,
        admission: Optional[AdmissionController] = None,
        retry: Optional[RetryPolicy] = None,
        trace: Optional[Tracer] = None,
        overload: Optional[OverloadController] = None,
        durability: Optional[DurabilityPlane] = None,
        tenancy: Optional[TenancyPlane] = None,
    ):
        super().__init__(
            scheduler,
            [engine],
            admission=admission,
            retry=retry,
            trace=trace,
            overload=overload,
            durability=durability,
            tenancy=tenancy,
        )
        self.engine = engine
