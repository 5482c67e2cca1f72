"""Production decoding ≡ the full-recompute oracle, token for token.

``Seq2SeqModel.greedy_decode`` runs the ragged KV-cached loop of
``repro.model.generation``; the oracle is
``repro.experiments.ablations.recompute_decode``, which re-runs the
masked decoder stack over a padded decoder tensor every step.
"""

import dataclasses

import pytest

from repro.config import ModelConfig
from repro.core.layout import BatchLayout
from repro.core.packing import pack_first_fit, pack_in_order
from repro.core.slotting import pack_into_slots
from repro.experiments.ablations import recompute_decode
from repro.model.seq2seq import Seq2SeqModel
from tests.conftest import REPEATED, grouped_eos_model, with_eos_bias


def _layout(reqs, rows=2, cap=16):
    res = pack_first_fit(reqs, num_rows=rows, row_length=cap)
    assert not res.rejected
    return res.layout


def _slotted(reqs):
    # Slots of 7 in rows of 16: requests sit at slot offsets, so a row's
    # segments leave gaps and are not in order of their start.
    res = pack_into_slots(reqs, num_rows=3, row_length=16, slot_size=7)
    assert not res.rejected
    starts = [seg.start for seg in res.layout.rows[0].segments]
    assert starts != sorted(starts)
    return res.layout


LAYOUTS = {
    "naive": lambda reqs: BatchLayout.naive(reqs),
    "in_order": lambda reqs: pack_in_order(reqs, 4, 16).layout,
    "first_fit": lambda reqs: pack_first_fit(reqs, 3, 16).layout,
    "slotted": _slotted,
    "single_with_empty_rows": lambda reqs: pack_in_order(reqs[:1], 4, 16).layout,
}
LENGTHS = [5, 3, 7, 2, 4, 6, 1]


def early_eos_model():
    """A tiny model that, on LENGTHS, greedily emits EOS at steps 3-5 for
    six requests and never for the seventh (found by scanning seeds)."""
    return with_eos_bias(Seq2SeqModel(ModelConfig.tiny(), seed=14), 1.5)


class TestDecodeEquivalence:
    @pytest.mark.parametrize("family", LAYOUTS)
    @pytest.mark.parametrize("budget", [1, 2, 8])
    @pytest.mark.parametrize("pass_memory", [False, True])
    def test_layout_families(
        self, tiny_model, tokenized_requests, family, budget, pass_memory
    ):
        layout = LAYOUTS[family](tokenized_requests(LENGTHS))
        assert layout.num_requests == (1 if family == "single_with_empty_rows" else 7)
        memory = tiny_model.encode_layout(layout) if pass_memory else None
        got = tiny_model.greedy_decode(layout, max_new_tokens=budget, memory=memory)
        want = recompute_decode(tiny_model, layout, max_new_tokens=budget)
        assert got.outputs == want.outputs
        assert got.completion_step == want.completion_step
        assert got.steps_run == want.steps_run

    def test_matches_full_recompute(self, tiny_model, tokenized_requests):
        reqs = tokenized_requests([5, 3, 7, 2, 4, 6])
        layout = _layout(reqs)
        assert tiny_model.greedy_decode(layout, 6) == recompute_decode(
            tiny_model, layout, 6
        )

    def test_matches_on_naive_layout(self, tiny_model, tokenized_requests):
        layout = BatchLayout.naive(tokenized_requests([4, 9, 2]))
        assert tiny_model.greedy_decode(layout, 5) == recompute_decode(
            tiny_model, layout, 5
        )

    def test_matches_on_slotted_layout(self, tiny_model, tokenized_requests):
        reqs = tokenized_requests([3, 4, 2, 4])
        layout = pack_into_slots(reqs, num_rows=2, row_length=8, slot_size=4).layout
        memory = tiny_model.encode_layout(layout, slotted=True)
        got = tiny_model.greedy_decode(layout, 4, memory=memory)
        assert got == recompute_decode(tiny_model, layout, 4)

    def test_matches_single_request(self, tiny_model, tokenized_requests):
        reqs = tokenized_requests([6])
        layout = _layout(reqs, rows=1, cap=8)
        got = tiny_model.greedy_decode(layout, max_new_tokens=8)
        ref = tiny_model.greedy_decode_single(reqs[0].tokens, max_new_tokens=8)
        assert got.outputs[reqs[0].request_id] == ref
        assert got == recompute_decode(tiny_model, layout, 8)

    @pytest.mark.parametrize("budget", [1, 2, 5])
    def test_budget_respected(self, tiny_model, tokenized_requests, budget):
        layout = _layout(tokenized_requests([4, 3]), rows=1, cap=8)
        got = tiny_model.greedy_decode(layout, max_new_tokens=budget)
        assert all(len(toks) <= budget for toks in got.outputs.values())
        assert all(step <= budget for step in got.completion_step.values())

    def test_empty_layout(self, tiny_model):
        layout = BatchLayout(num_rows=1, row_length=8)
        assert tiny_model.greedy_decode(layout).outputs == {}
        assert recompute_decode(tiny_model, layout).outputs == {}

    def test_zero_budget(self, tiny_model, tokenized_requests):
        layout = _layout(tokenized_requests([4, 3]))
        got = tiny_model.greedy_decode(layout, max_new_tokens=0)
        assert got == recompute_decode(tiny_model, layout, 0)
        assert got.steps_run == 0
        assert all(toks == [] for toks in got.outputs.values())

    def test_uneven_rows(self, tiny_model, tokenized_requests):
        """Rows with different segment counts (padding in the oracle's decoder)."""
        layout = _layout(tokenized_requests([3, 3, 3, 9]), rows=2, cap=9)
        assert tiny_model.greedy_decode(layout, 4) == recompute_decode(
            tiny_model, layout, 4
        )

    def test_many_steps_stay_exact(self, tiny_model, tokenized_requests):
        """Cache drift would accumulate over long decodes — assert none."""
        layout = _layout(tokenized_requests([5, 7]), rows=1, cap=12)
        assert tiny_model.greedy_decode(layout, 16) == recompute_decode(
            tiny_model, layout, 16
        )

    @pytest.mark.parametrize("family", ["first_fit", "slotted"])
    def test_eos_at_different_steps(self, tokenized_requests, family):
        """Requests leave the active set a few at a time; the caches compact."""
        model = early_eos_model()
        layout = LAYOUTS[family](tokenized_requests(LENGTHS))
        got = model.greedy_decode(layout, max_new_tokens=8)
        steps = set(got.completion_step.values())
        assert len(steps) >= 3, "the model no longer staggers EOS"
        assert got == recompute_decode(model, layout, 8)
        for rid, toks in got.outputs.items():
            assert len(toks) == got.completion_step[rid]

    def test_eos_for_all_at_step_one(self, tiny_model, tokenized_requests):
        model = with_eos_bias(tiny_model, 1e6)
        layout = LAYOUTS["first_fit"](tokenized_requests(LENGTHS))
        got = model.greedy_decode(layout, max_new_tokens=8)
        assert got.steps_run == 1
        assert set(got.completion_step.values()) == {1}
        assert all(toks == [model.config.eos_token] for toks in got.outputs.values())
        assert got == recompute_decode(model, layout, 8)


# REPEATED gives the decode loop's length groups 2-3 requests each;
# LENGTHS above gives every request a group of its own.
GROUPED_LAYOUTS = {
    "in_order": LAYOUTS["in_order"],
    "first_fit": LAYOUTS["first_fit"],
    # Row 0 holds 4, 2, 4, 2 at starts 0, 4, 7, 11: slot gaps, and
    # groups that span rows out of start order.
    "slotted": lambda reqs: pack_into_slots(reqs, 3, 16, 7).layout,
}


def split_groups(result, layout):
    """Equal-length groups of ≥ 2 requests whose members finished at different steps."""
    steps = {}
    for req in layout.requests():
        steps.setdefault(req.length, []).append(result.completion_step[req.request_id])
    return sum(1 for s in steps.values() if len(s) >= 2 and len(set(s)) > 1)


class TestEqualLengthGroups:
    @pytest.mark.parametrize("family", GROUPED_LAYOUTS)
    @pytest.mark.parametrize("budget", [1, 3, 8])
    @pytest.mark.parametrize("pass_memory", [False, True])
    def test_groups_without_eos(
        self, tiny_model, tokenized_requests, family, budget, pass_memory
    ):
        layout = GROUPED_LAYOUTS[family](tokenized_requests(REPEATED))
        assert layout.num_requests == len(REPEATED)
        memory = tiny_model.encode_layout(layout) if pass_memory else None
        got = tiny_model.greedy_decode(layout, max_new_tokens=budget, memory=memory)
        assert got == recompute_decode(tiny_model, layout, max_new_tokens=budget)

    @pytest.mark.parametrize("family", GROUPED_LAYOUTS)
    def test_greedy_eos_inside_groups(self, tokenized_requests, family):
        """A request leaves a group whose other members decode on."""
        model = grouped_eos_model()
        layout = GROUPED_LAYOUTS[family](tokenized_requests(REPEATED))
        got = model.greedy_decode(layout, max_new_tokens=8)
        assert split_groups(got, layout) == 3, "the model no longer splits the groups"
        assert got == recompute_decode(model, layout, 8)
        for rid, toks in got.outputs.items():
            assert len(toks) == got.completion_step[rid]


def test_large_cross_attention_scores_stay_exact(tiny_model, tokenized_requests):
    """Cross-attention scores far beyond exp's range: the grouped softmax
    shifts by each row's maximum, as the oracle's does."""
    layers = [
        dataclasses.replace(
            layer,
            cross_attn=dataclasses.replace(layer.cross_attn, w_q=layer.cross_attn.w_q * 1e3),
        )
        for layer in tiny_model.params.decoder_layers
    ]
    params = dataclasses.replace(tiny_model.params, decoder_layers=layers)
    model = Seq2SeqModel(tiny_model.config, params=params)
    layout = GROUPED_LAYOUTS["first_fit"](tokenized_requests(REPEATED))
    got = model.greedy_decode(layout, max_new_tokens=4)
    assert got == recompute_decode(model, layout, 4)
