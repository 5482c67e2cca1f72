"""One stopwatch for every scheduler (``repro.scheduling.base``).

``Scheduler.select`` and ``RowFill.next_row`` time the untimed hook a
policy implements, so every scheduler reports Fig. 16's ``runtime``
without reading a clock itself, and a fair-share decision is timed
once, around every row it pulls from its fills.
"""

import pytest

from repro.config import BatchConfig
from repro.rng import ensure_rng
from repro.scheduling import base
from repro.scheduling.base import RowFill, Scheduler, SchedulingDecision
from repro.scheduling.baselines import DEFScheduler, FCFSScheduler, SJFScheduler
from repro.scheduling.das import DASFill, DASScheduler
from repro.scheduling.oracle import OracleScheduler
from repro.scheduling.slotted_das import SlottedDASScheduler
from repro.tenancy.fairshare import fair_select
from repro.types import Request

BATCH = BatchConfig(num_rows=3, row_length=24)


def _waiting(n=30):
    rng = ensure_rng(3)
    return [
        Request(
            request_id=i,
            length=int(rng.integers(2, 12)),
            arrival=0.0,
            deadline=float(rng.uniform(1.0, 4.0)),
            tenant=("a", "b")[i % 2],
        )
        for i in range(n)
    ]


SCHEDULERS = {
    "das": lambda w: DASScheduler(BATCH),
    "slotted_das": lambda w: SlottedDASScheduler(BATCH),
    "fcfs": lambda w: FCFSScheduler(BATCH),
    "sjf": lambda w: SJFScheduler(BATCH),
    "def": lambda w: DEFScheduler(BATCH),
    "oracle": lambda w: OracleScheduler(BATCH, w, [0.0, 1.0]),
}


@pytest.fixture(params=sorted(SCHEDULERS))
def scheduler(request):
    return SCHEDULERS[request.param](_waiting())


class TestEveryDecisionIsTimed:
    def test_select(self, scheduler):
        decision = scheduler.select(_waiting(), 0.0)
        assert decision.rows
        assert decision.runtime > 0

    def test_next_row(self, scheduler):
        fill = scheduler.open(_waiting(), 0.0)
        # DAS has its resumable fill; everything else the generic one.
        assert isinstance(fill, DASFill) == (scheduler.name == "das")
        sub = fill.next_row()
        assert len(sub.rows) == 1
        assert sub.runtime > 0

    def test_the_policy_is_the_untimed_hook(self, scheduler):
        # The concrete class implements ``_select``; the timed entry
        # point is the base class's and nobody overrides it.
        assert type(scheduler).select is Scheduler.select
        assert scheduler._select(_waiting(), 0.0).runtime == 0.0

    def test_fills_inherit_the_timed_entry_point(self):
        assert DASFill.next_row is RowFill.next_row


class TestSelectOverridesStillWork:
    def test_a_subclass_that_overrides_select_instantiates(self):
        # tests/oracles/ and wrappers override ``select`` itself; the
        # hook is deliberately not an abstract method.
        class Fixed(Scheduler):
            def select(self, waiting, now=0.0):
                return SchedulingDecision(rows=[list(waiting)[:1]])

        fixed = Fixed(BATCH)
        assert fixed.select(_waiting()).num_selected == 1
        assert len(fixed.open(_waiting()).next_row().rows) == 1

    def test_a_scheduler_without_a_policy_says_so(self):
        with pytest.raises(NotImplementedError):
            Scheduler(BATCH).select(_waiting())


class TestFairShareIsTimedOnce:
    @pytest.mark.parametrize("name", ["das", "slotted_das", "sjf"])
    def test_one_stopwatch_spans_every_row(self, name, monkeypatch):
        waiting = _waiting()
        groups: dict = {}
        for r in waiting:
            groups.setdefault(r.tenant, []).append(r)
        reads: list[float] = []

        def clock():
            reads.append(float(len(reads)))
            return reads[-1]

        monkeypatch.setattr(base.time, "perf_counter", clock)
        decision = fair_select(
            SCHEDULERS[name](waiting), groups, 0.0,
            weights={t: 1.0 for t in groups}, deficits={}, rng=ensure_rng(0),
        )
        assert len(decision.rows) == BATCH.num_rows
        # The decision's first and last reads bracket every other one:
        # a fill that times its own rows does so inside the decision.
        assert decision.runtime == reads[-1] - reads[0] == len(reads) - 1
        if name == "das":
            # DAS rows come off the fill with no stopwatch of their own.
            assert len(reads) == 2
