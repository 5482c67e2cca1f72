"""The online server runs the batch loop's own slot (``Lifecycle.run_slot``).

Two checks that the server and the simulators cannot drift apart again:
a slotted scheduler's slot size reaches the server's engine, bare or
wrapped, and the server serves the same batches, with the same tokens,
as a one-engine ``ServingSimulator`` given the same requests.
"""

from itertools import count, groupby

import pytest

from repro.config import BatchConfig, ModelConfig
from repro.engine.base import EngineMode
from repro.engine.concat import ConcatEngine
from repro.engine.slotted import SlottedConcatEngine
from repro.faults.engine import FaultyEngine
from repro.faults.plan import FaultConfig, FaultPlan
from repro.scheduling.das import DASScheduler
from repro.scheduling.slotted_das import SlottedDASScheduler
from repro.serving.server import TCBServer
from repro.serving.simulator import ServingSimulator
from repro.types import Request

MODEL = ModelConfig.tiny()
BATCH = BatchConfig(num_rows=2, row_length=16)
SEED = 11
NEW_TOKENS = 4
SLACK = 1e6  # every deadline far beyond the run


def _sentences(n: int) -> list[list[int]]:
    return [[4 + (i * 5 + j) % 11 for j in range(2 + (i * 7) % 13)] for i in range(n)]


class _LoggedScheduler(SlottedDASScheduler):
    """Slotted DAS, keeping every decision's slot size."""

    def __init__(self, batch):
        super().__init__(batch)
        self.sizes = []

    def select(self, waiting, now=0.0):
        decision = super().select(waiting, now)
        self.sizes.append(decision.slot_size)
        return decision


class _LoggedSlotted(SlottedConcatEngine):
    """A measured slotted engine, keeping every slot size it is given."""

    def __init__(self):
        super().__init__(
            BATCH,
            mode=EngineMode.MEASURED,
            model_config=MODEL,
            model_seed=SEED,
            max_new_tokens=NEW_TOKENS,
        )
        self.sizes = []

    def set_slot_size(self, slot_size):
        self.sizes.append(slot_size)
        super().set_slot_size(slot_size)


@pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "faulty"])
def test_server_forwards_slotted_das_slot_size(wrapped):
    scheduler = _LoggedScheduler(BATCH)
    server = TCBServer(
        MODEL, BATCH, scheduler, seed=SEED, max_new_tokens=NEW_TOKENS
    )
    engine = _LoggedSlotted()
    server.engine = (
        FaultyEngine(engine, FaultPlan(FaultConfig(), seed=0)) if wrapped else engine
    )
    sentences = _sentences(14)
    tokens = {server.submit(s): s for s in sentences}
    served = server.run_until_drained()

    assert scheduler.sizes and None not in scheduler.sizes
    assert any(size < BATCH.row_length for size in scheduler.sizes)
    assert engine.sizes == scheduler.sizes
    assert sorted(r.request_id for r in served) == sorted(tokens)
    for resp in served:
        assert resp.output_tokens == server.model.greedy_decode_single(
            tokens[resp.request_id], max_new_tokens=NEW_TOKENS
        )


class _LoggedConcat(ConcatEngine):
    """The server's engine, keeping every request's decoded tokens."""

    def __init__(self):
        super().__init__(
            BATCH,
            packing="in_order",
            mode=EngineMode.MEASURED,
            model_config=MODEL,
            model_seed=SEED,
            max_new_tokens=NEW_TOKENS,
        )
        self.outputs = {}

    def serve(self, requests, *, now=0.0):
        result = super().serve(requests, now=now)
        self.outputs.update(result.outputs or {})
        return result


def test_server_serves_what_the_simulator_serves():
    sentences = _sentences(23)
    server = TCBServer(
        MODEL, BATCH, DASScheduler(BATCH), seed=SEED, max_new_tokens=NEW_TOKENS
    )
    # Every request is submitted at 0, as the simulator's all arrive at
    # 0; then step k runs at k seconds, so each slot's finish is its own.
    server._now = lambda: 0.0
    for s in sentences:
        server.submit(s, deadline_slack=SLACK)
    server._now = count(1).__next__
    responses = server.run_until_drained()
    online = [
        [r.request_id for r in slot]
        for _, slot in groupby(responses, key=lambda r: r.finished_at)
    ]

    engine = _LoggedConcat()
    requests = [
        Request(
            request_id=i,
            length=len(s),
            arrival=0.0,
            deadline=SLACK,
            tokens=tuple(s),
        )
        for i, s in enumerate(sentences)
    ]
    m = ServingSimulator(DASScheduler(BATCH), engine).run(
        requests, horizon=SLACK
    ).metrics
    assert m.num_served == len(sentences)
    finish = m.finish_times
    by_finish = sorted(finish, key=lambda rid: (finish[rid][1], rid))
    simulated = [
        sorted(slot) for _, slot in groupby(by_finish, key=lambda rid: finish[rid][1])
    ]

    assert len(online) > 1
    assert [sorted(slot) for slot in online] == simulated
    assert {r.request_id: r.output_tokens for r in responses} == engine.outputs
