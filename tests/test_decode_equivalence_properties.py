"""Hypothesis property tests: production decoding ≡ recompute, always.

Random request sets, random packing geometries, random decode budgets,
with and without a model that emits EOS early and unevenly — the
KV-cached decoder must agree with the recompute oracle token for token
on every one.  This is the strongest guard against cache-indexing bugs
(off-by-one positions, stale K/V, a compaction that drops the wrong
request).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.packing import pack_first_fit, pack_in_order
from repro.core.slotting import pack_into_slots
from repro.experiments.ablations import recompute_decode
from repro.types import Request

from tests.test_decode_equivalence import early_eos_model


@st.composite
def decode_cases(draw):
    n = draw(st.integers(1, 6))
    lengths = [draw(st.integers(1, 8)) for _ in range(n)]
    rows = draw(st.integers(1, 4))
    budget = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    packer = draw(st.sampled_from(["first_fit", "in_order", "slotted"]))
    early_eos = draw(st.booleans())
    return lengths, rows, budget, seed, packer, early_eos


class TestDecodeEquivalenceProperties:
    @given(case=decode_cases())
    @settings(max_examples=30, deadline=None)
    def test_always_matches_recompute(self, tiny_model, case):
        lengths, rows, budget, seed, packer, early_eos = case
        rng = np.random.default_rng(seed)
        cfg = tiny_model.config
        reqs = [
            Request(
                request_id=i,
                length=l,
                tokens=tuple(
                    int(t) for t in rng.integers(4, cfg.vocab_size, size=l)
                ),
            )
            for i, l in enumerate(lengths)
        ]
        cap = max(lengths) * ((len(lengths) + rows - 1) // rows + 1)
        if packer == "slotted":
            layout = pack_into_slots(reqs, rows, cap, max(lengths)).layout
        elif packer == "in_order":
            layout = pack_in_order(reqs, rows, cap).layout
        else:
            layout = pack_first_fit(reqs, rows, cap).layout
        if layout.num_requests == 0:
            return
        model = early_eos_model() if early_eos else tiny_model
        assert model.greedy_decode(layout, budget) == recompute_decode(
            model, layout, budget
        )
