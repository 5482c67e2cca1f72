"""Tests for the online TCBServer facade (real-model path)."""

import pytest

from repro.config import BatchConfig, ModelConfig, SchedulerConfig
from repro.faults.engine import FaultyEngine
from repro.faults.outcomes import BatchFailure, EngineDown
from repro.faults.plan import FaultConfig, FaultPlan
from repro.scheduling.das import DASScheduler
from repro.serving.server import TCBServer
from repro.tenancy import TenancyPlane


@pytest.fixture()
def server():
    return TCBServer(
        model_config=ModelConfig.tiny(),
        batch=BatchConfig(num_rows=2, row_length=16),
        seed=11,
        max_new_tokens=4,
    )


class TestTCBServer:
    def test_submit_and_step(self, server, rng):
        rid = server.submit([5, 6, 7])
        assert server.pending == 1
        responses = server.step()
        assert [r.request_id for r in responses] == [rid]
        assert server.pending == 0

    def test_poll_before_and_after(self, server):
        rid = server.submit([5, 6, 7, 8])
        assert server.poll(rid) is None
        server.step()
        resp = server.poll(rid)
        assert resp is not None
        assert resp.latency >= 0
        assert len(resp.output_tokens) <= 4

    def test_batched_requests_match_isolated_inference(self, server):
        """The server's concatenated answers equal per-request decoding —
        the user-facing version of the §4.1 correctness claim."""
        sentences = [[5, 6, 7], [9, 10], [8, 8, 8, 8]]
        rids = [server.submit(s) for s in sentences]
        server.run_until_drained()
        for s, rid in zip(sentences, rids):
            expected = server.model.greedy_decode_single(
                s, max_new_tokens=server.max_new_tokens
            )
            assert server.poll(rid).output_tokens == expected

    def test_mixed_batch_with_empty_rows_matches_isolated_inference(self):
        """A drained mixed batch that leaves rows of the layout empty
        still answers every request exactly as solo decoding would."""
        server = TCBServer(
            model_config=ModelConfig.tiny(),
            batch=BatchConfig(num_rows=6, row_length=16),
            seed=11,
            max_new_tokens=5,
        )
        sentences = [[5, 6, 7], [9] * 11, [8, 8, 8, 8], [12, 4], [7] * 9]
        rids = [server.submit(s) for s in sentences]
        server.run_until_drained()
        # One batch of 29 tokens in rows of 16: at least three rows stay empty.
        assert server.metrics.num_batches == 1
        for s, rid in zip(sentences, rids):
            expected = server.model.greedy_decode_single(s, max_new_tokens=5)
            assert server.poll(rid).output_tokens == expected

    def test_empty_submission_rejected(self, server):
        with pytest.raises(ValueError, match="empty"):
            server.submit([])

    def test_oversize_submission_rejected(self, server):
        with pytest.raises(ValueError, match="exceeds"):
            server.submit(list(range(99)))

    def test_step_with_empty_queue(self, server):
        assert server.step() == []

    def test_many_requests_drain(self, server):
        rids = [server.submit([4 + i % 5] * (2 + i % 6)) for i in range(10)]
        server.run_until_drained()
        assert server.pending == 0
        assert all(server.poll(r) is not None for r in rids)

    def test_step_books_batch_accounting(self, server):
        """step() shares the simulators' select/serve transitions, so the
        online ledger carries scheduler time, engine time and token
        counts — summary() used to report all of them as 0."""
        for i in range(10):
            server.submit([4 + i % 5] * (2 + i % 6))
        server.run_until_drained()
        m = server.metrics
        assert m.useful_tokens == sum(r.length for r in m.served)
        assert m.padded_tokens > 0
        assert m.total_engine_time > 0
        assert m.total_scheduler_time > 0
        summary = m.summary()
        assert summary["padding_ratio"] > 0 and summary["sched_overhead"] > 0

    def test_throughput_is_over_the_servers_own_clock(self, server):
        for s in ([5, 6, 7], [9, 10], [8, 8, 8, 8]):
            server.submit(s)
        server.run_until_drained()
        m = server.metrics
        assert m.num_served == 3
        assert m.horizon > 0
        assert m.throughput == m.num_served / m.horizon
        assert m.horizon >= max(finish for _, finish in m.finish_times.values())

    def test_row_length_must_fit_model(self):
        with pytest.raises(ValueError, match="maximum input length"):
            TCBServer(
                model_config=ModelConfig.tiny(max_len=8),
                batch=BatchConfig(num_rows=2, row_length=64),
            )

    def test_custom_scheduler(self):
        batch = BatchConfig(num_rows=2, row_length=16)
        server = TCBServer(
            model_config=ModelConfig.tiny(),
            batch=batch,
            scheduler=DASScheduler(batch, SchedulerConfig(eta=0.3, q=0.7)),
        )
        rid = server.submit([5, 5, 5])
        server.step()
        assert server.poll(rid) is not None

    def test_request_longer_than_the_schedulers_rows_is_booked_expired(self):
        """A request that fits the server's rows but not its scheduler's
        is dropped as unservable, and the online ledger books it then."""
        server = TCBServer(
            model_config=ModelConfig.tiny(),
            batch=BatchConfig(num_rows=2, row_length=16),
            scheduler=DASScheduler(BatchConfig(num_rows=2, row_length=8)),
        )
        long_id = server.submit([4] * 12)
        server.submit([5] * 4)
        assert len(server.run_until_drained()) == 1
        m = server.metrics
        assert [r.request_id for r in m.expired] == [long_id]
        m.assert_conservation()


class TestServerOverload:
    """submit()/step() wired into the overload plane (docs/overload.md)."""

    def _server(self, overload=None, admission=None, rows=2):
        return TCBServer(
            model_config=ModelConfig.tiny(),
            batch=BatchConfig(num_rows=rows, row_length=16),
            seed=11,
            max_new_tokens=2,
            overload=overload,
            admission=admission,
        )

    def test_bounded_queue_raises_backpressure(self):
        from repro.overload import (
            BackpressureError,
            OverloadConfig,
            OverloadController,
            QueueLimits,
        )

        ov = OverloadController(
            OverloadConfig(limits=QueueLimits(max_requests=1))
        )
        server = self._server(overload=ov)
        server.submit([5, 6, 7])
        with pytest.raises(BackpressureError, match="queue-full") as exc:
            server.submit([8, 9])
        assert exc.value.reason == "queue-full"
        assert exc.value.pressure is not None
        # The refusal is a ledgered terminal, not a lost request.
        assert server.metrics.arrived == 2
        assert server.metrics.num_rejected == 1
        # Draining restores capacity.
        server.run_until_drained()
        server.submit([8, 9])
        assert server.pending == 1

    def test_admission_refusal_raises_backpressure(self):
        from repro.overload import BackpressureError
        from repro.serving.admission import AdmissionController

        batch = BatchConfig(num_rows=2, row_length=16)
        server = self._server(admission=AdmissionController(batch))
        with pytest.raises(BackpressureError, match="deadline unreachable"):
            server.submit([5, 6, 7], deadline_slack=0.0)
        assert server.metrics.num_rejected == 1

    def test_degraded_admission_raises_backpressure(self):
        from repro.overload import (
            BackpressureError,
            DegradationConfig,
            OverloadConfig,
            OverloadController,
        )
        from repro.scheduling.queue import RequestQueue
        from repro.types import Request

        ov = OverloadController(
            OverloadConfig(
                degradation=DegradationConfig(
                    shed_min_slack=0.5, brownout_min_slack=30.0
                )
            )
        )
        server = self._server(overload=ov)
        # Age a synthetic queue far past the brownout threshold so the
        # controller degrades (the server shares the controller object).
        stale = RequestQueue()
        stale.add(Request(request_id=999, length=4, arrival=0.0, deadline=500.0))
        ov.update(100.0, stale)
        assert ov.level.label == "brownout"
        with pytest.raises(BackpressureError, match="degraded"):
            server.submit([5, 6, 7], deadline_slack=1.0)  # slack < 30s floor
        assert server.metrics.num_rejected == 1
        # Plenty of slack still gets through even under brownout.
        rid = server.submit([5, 6, 7], deadline_slack=120.0)
        assert isinstance(rid, int)

    def test_run_until_drained_raises_when_exhausted(self):
        from repro.overload import (
            BreakerConfig,
            OverloadConfig,
            OverloadController,
        )
        from repro.serving.server import DrainExhausted

        # A tripped breaker with an hour-long recovery: step() can never
        # serve, so the drain must report exhaustion instead of silently
        # returning a partial result.
        ov = OverloadController(
            OverloadConfig(
                breaker=BreakerConfig(failure_threshold=1, recovery_time=3600.0)
            )
        )
        server = self._server(overload=ov)
        server.submit([5, 6, 7])
        ov.record_result(0, 0.0, ok=False)
        with pytest.raises(DrainExhausted) as exc:
            server.run_until_drained(max_steps=3)
        assert exc.value.pending == 1
        assert exc.value.max_steps == 3

    def test_metrics_ledger_conserves_after_drain(self):
        from repro.overload import (
            BackpressureError,
            OverloadConfig,
            OverloadController,
            QueueLimits,
        )

        ov = OverloadController(
            OverloadConfig(limits=QueueLimits(max_requests=2))
        )
        server = self._server(overload=ov)
        accepted = 0
        for i in range(5):
            try:
                server.submit([4 + i % 5] * (2 + i % 4))
                accepted += 1
            except BackpressureError:
                pass
        server.run_until_drained()
        m = server.metrics
        assert m.arrived == 5
        assert m.num_served == accepted
        assert m.num_rejected == 5 - accepted
        m.assert_conservation()


class _LoggedFaults(FaultyEngine):
    """A FaultyEngine that logs what each attempt raised."""

    def __init__(self, inner, plan):
        super().__init__(inner, plan)
        self.log = []

    def serve(self, requests, *, now=0.0):
        try:
            return super().serve(requests, now=now)
        except BatchFailure as fail:
            self.log.append((fail.kind, len(requests), 0.0))
            raise
        except EngineDown as down:
            self.log.append(("crash", len(requests), down.downtime))
            raise


class TestServerFaults:
    def test_faulty_engine_under_the_server(self):
        """A seeded plan's failures, OOM splits and crash reach the online
        ledger through serve_slot, and what is served is still exact."""
        server = TCBServer(
            model_config=ModelConfig.tiny(),
            batch=BatchConfig(num_rows=2, row_length=16),
            seed=11,
            max_new_tokens=4,
        )
        # Seed 30 opens failure, OOM, none, none, crash; 2 ms outages.
        cfg = FaultConfig(
            failure_rate=0.15, oom_rate=0.15, crash_rate=0.1,
            downtime=0.002, oom_threshold=0.25,
        )
        engine = _LoggedFaults(server.engine, FaultPlan(cfg, seed=30))
        server.engine = engine
        assert server.model is engine.inner.model
        sentences = [[4 + (i * 3 + j) % 9 for j in range(9 + i % 4)] for i in range(12)]
        tokens = {server.submit(s): s for s in sentences}
        # Steps return nothing, in microseconds, while the engine is down
        # (an OOM's launch overhead, priced by the cost model, counts too).
        served = server.run_until_drained(max_steps=1_000_000)

        kinds = [kind for kind, _, _ in engine.log]
        assert {"failure", "oom", "crash"} <= set(kinds)
        assert all(downtime > 0 for kind, _, downtime in engine.log if kind == "crash")
        m = server.metrics
        assert m.failed_batches == kinds.count("failure") + kinds.count("oom")
        assert m.downtime == sum(d for kind, _, d in engine.log if kind == "crash")
        split = sum((n + 1) // 2 for kind, n, _ in engine.log if kind == "oom" and n > 1)
        triaged = sum(n for kind, n, _ in engine.log if kind != "oom" or n == 1)
        assert m.retries == split + triaged - len(m.abandoned)
        m.assert_conservation()
        assert len(served) == m.num_served > 0
        assert m.num_served + len(m.abandoned) == 12
        for resp in served:
            assert resp.output_tokens == server.model.greedy_decode_single(
                tokens[resp.request_id], max_new_tokens=4
            )

    def test_abandoned_requests_are_booked_at_once(self):
        """Requests the retry policy gives up on reach the online ledger
        when they are abandoned: there is no end-of-run sweep to fold
        the queue's ledger in later."""
        server = TCBServer(
            model_config=ModelConfig.tiny(),
            batch=BatchConfig(num_rows=2, row_length=16),
            seed=11,
            max_new_tokens=4,
            tenancy=TenancyPlane(),
        )
        server.engine = FaultyEngine(
            server.engine, FaultPlan(FaultConfig(failure_rate=1.0), seed=0)
        )
        for i in range(4):
            server.submit([4, 5, 6 + i])
        assert server.run_until_drained(max_steps=100_000) == []
        m = server.metrics
        assert m.num_abandoned == 4
        m.assert_conservation()
        assert server.tenancy.book.ledger("default").abandoned == 4
        server.tenancy.book.assert_matches(m)
