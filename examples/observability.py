"""Observability: slot traces, queue-depth timelines, trace replay.

Shows the operational tooling around the serving loop:

1. run a serving simulation with a span tracer attached,
2. inspect per-slot batch events (utilisation, scheduler runtime) and
   export the request spans as CSV / Chrome trace JSON,
3. chart the queue depth / served / failed timeline in the terminal,
4. persist the workload trace and replay it bit-exactly.

Run:  python examples/observability.py
"""

from repro.config import BatchConfig, SchedulerConfig
from repro.engine.concat import ConcatEngine
from repro.experiments.serving_sweeps import make_workload
from repro.obs.export import ascii_timeline, chrome_trace_json, spans_to_csv
from repro.obs.recorder import Tracer
from repro.scheduling.das import DASScheduler
from repro.serving.simulator import ServingSimulator
from repro.workload.replay import trace_from_jsonl, trace_to_jsonl


def main() -> None:
    batch = BatchConfig(num_rows=16, row_length=100)
    workload = make_workload(300.0, horizon=6.0, seed=5)
    requests = workload.generate()

    tracer = Tracer()
    sim = ServingSimulator(
        DASScheduler(batch, SchedulerConfig()),
        ConcatEngine(batch),
        trace=tracer,
    )
    m = sim.run(list(requests), horizon=6.0).metrics

    print(
        f"served {m.num_served}/{m.num_served + m.num_expired} requests in "
        f"{m.num_batches} slots; utility {m.total_utility:.1f}, "
        f"mean latency {m.mean_latency:.2f}s, p99 {m.latency_percentile(99):.2f}s"
    )

    # 1. Per-slot batch events, paired with the decision that picked them.
    print("\nfirst three slots:")
    for slot, decision in zip(tracer.batches[:3], tracer.decisions[:3]):
        print(
            f"  t={slot.t_start:.2f}s served={slot.attrs['num_requests']:3d} "
            f"lat={slot.duration:.2f}s util={slot.attrs['padding_efficiency']:.0%} "
            f"sched={decision.runtime * 1e3:.2f}ms"
        )
    csv_rows = len(spans_to_csv(tracer).splitlines()) - 1
    chrome_bytes = len(chrome_trace_json(tracer))
    print(
        f"  ... {csv_rows} request spans exportable as CSV, "
        f"{chrome_bytes} bytes as Chrome trace JSON"
    )

    # 2. Timeline chart.
    print("\nqueue/served/failed over time:")
    print(ascii_timeline(tracer, num_points=40))

    # 3. Trace replay.
    replayed = trace_from_jsonl(trace_to_jsonl(requests))
    m2 = (
        ServingSimulator(DASScheduler(batch, SchedulerConfig()), ConcatEngine(batch))
        .run(replayed, horizon=6.0)
        .metrics
    )
    print(
        f"\nreplayed persisted trace: served {m2.num_served} "
        f"(identical: {m2.num_served == m.num_served})"
    )


if __name__ == "__main__":
    main()
