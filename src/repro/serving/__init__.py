"""The serving system: discrete-event simulator, metrics, online server.

:class:`~repro.serving.simulator.ServingSimulator` wires a workload, a
scheduler and an engine into the loop of Fig. 3: when the (simulated)
GPU goes idle, the scheduler packs a batch from the wait queue and the
engine runs it; requests missing their deadlines expire with zero
utility.  All of the paper's serving figures (9–12, 15, 16) are sweeps
over this loop, which is :class:`~repro.serving.cluster.ClusterSimulator`
over one engine (the autoscaler runs it over a scaling fleet).

:class:`~repro.serving.server.TCBServer` is the online facade a real
deployment would use (submit / poll): the same lifecycle and engine
slot (``Lifecycle.run_slot``) over a measured ConcatEngine, whose
decoded tokens are the responses.
"""

from repro.serving.metrics import ServingMetrics
from repro.serving.simulator import ServingSimulator, SimulationResult
from repro.serving.server import TCBServer
from repro.serving.cluster import ClusterSimulator
from repro.serving.continuous import ContinuousBatchingSimulator
from repro.serving.autoscale import AutoscalingSimulator, ScalingEvent
from repro.serving.admission import AdmissionController

__all__ = [
    "ServingMetrics",
    "ServingSimulator",
    "SimulationResult",
    "TCBServer",
    "ClusterSimulator",
    "ContinuousBatchingSimulator",
    "AutoscalingSimulator",
    "ScalingEvent",
    "AdmissionController",
]
