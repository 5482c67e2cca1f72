"""End-to-end model tests: the paper's §4.1 correctness claims.

The decisive property: running requests *concatenated* (with separate PE
and the masked attention) produces bit-for-bit (up to float tolerance)
the same encoder states and the same greedy decodes as running each
request alone.  We also verify the converse — that *omitting* either
customisation breaks correctness — which is the paper's motivation for
them.
"""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.core.layout import BatchLayout
from repro.core.masks import block_diagonal_mask
from repro.core.packing import pack_first_fit, pack_in_order
from repro.core.slotting import pack_into_slots
from repro.model.encoder import encode
from repro.model.params import init_seq2seq
from repro.model.seq2seq import Seq2SeqModel

ATOL = 1e-9


def _concat_layout(requests, rows, cap):
    res = pack_first_fit(requests, num_rows=rows, row_length=cap)
    assert not res.rejected
    res.layout.validate()
    return res.layout


class TestEncoderCorrectness:
    def test_concat_encode_equals_single(self, tiny_model, tokenized_requests):
        reqs = tokenized_requests([5, 3, 7, 2, 6, 4])
        layout = _concat_layout(reqs, rows=2, cap=16)
        enc = tiny_model.encode_layout(layout)
        for k, seg in layout.segments():
            single = tiny_model.encode_single(seg.request.tokens)[0]
            np.testing.assert_allclose(
                enc[k, seg.start : seg.end], single, atol=ATOL
            )

    def test_slotted_encode_equals_pure(self, tiny_model, tokenized_requests):
        reqs = tokenized_requests([3, 4, 2, 4, 3, 1])
        res = pack_into_slots(reqs, num_rows=2, row_length=12, slot_size=4)
        assert not res.rejected
        pure = tiny_model.encode_layout(res.layout, slotted=False)
        slotted = tiny_model.encode_layout(res.layout, slotted=True)
        seg = res.layout.segment_id_matrix()
        valid = seg >= 0
        np.testing.assert_allclose(slotted[valid], pure[valid], atol=ATOL)

    def test_naive_pe_breaks_correctness(self, tiny_model, tokenized_requests):
        """Without separate PE (Fig. 5a), the second concatenated request
        is encoded at shifted positions and the result changes."""
        reqs = tokenized_requests([4, 4])
        layout = _concat_layout(reqs, rows=1, cap=8)
        wrong = tiny_model.encode_layout(layout, separate_pe=False)
        seg2 = layout.rows[0].segments[1]
        single = tiny_model.encode_single(seg2.request.tokens)[0]
        assert not np.allclose(wrong[0, seg2.start : seg2.end], single, atol=1e-6)

    def test_missing_mask_breaks_correctness(self, tiny_model, tokenized_requests):
        """Without the Eq. 6 mask, requests attend across the row and the
        result is contaminated (the paper's 'wrong results' claim)."""
        reqs = tokenized_requests([4, 4])
        layout = _concat_layout(reqs, rows=1, cap=8)
        wrong = tiny_model.encode_layout(layout, concat_mask=False)
        seg1 = layout.rows[0].segments[0]
        single = tiny_model.encode_single(seg1.request.tokens)[0]
        assert not np.allclose(wrong[0, seg1.start : seg1.end], single, atol=1e-6)

    def test_naive_layout_matches_single_too(self, tiny_model, tokenized_requests):
        """Sanity: classic one-request-per-row padding is also exact."""
        reqs = tokenized_requests([5, 2, 7])
        layout = BatchLayout.naive(reqs)
        enc = tiny_model.encode_layout(layout)
        for k, seg in layout.segments():
            single = tiny_model.encode_single(seg.request.tokens)[0]
            np.testing.assert_allclose(
                enc[k, seg.start : seg.end], single, atol=ATOL
            )

    @pytest.mark.parametrize("slotted", [False, True])
    def test_empty_rows_are_skipped(self, tiny_model, tokenized_requests, slotted):
        """Rows without a segment are not encoded: zeros there, and the
        other rows equal an encode over every row of the layout."""
        reqs = tokenized_requests([5, 3, 4])
        if slotted:
            layout = pack_into_slots(reqs, num_rows=5, row_length=16, slot_size=8).layout
        else:
            layout = pack_in_order(reqs, num_rows=5, row_length=16).layout
        live = [bool(row.segments) for row in layout.rows]
        assert any(live) and not all(live)

        seg = layout.segment_id_matrix()
        x = tiny_model.embed(
            layout.token_matrix(pad_token=tiny_model.config.pad_token),
            layout.position_matrix(),
        )
        layers, heads = tiny_model.params.encoder_layers, tiny_model.config.num_heads
        if slotted:
            w = seg.shape[1]
            spans = [(a, min(b, w)) for a, b in layout.slot_boundaries()[0] if a < w]
            masks = [block_diagonal_mask(seg[:, a:b]) for a, b in spans]
            every_row = encode(layers, heads, x, slot_spans=spans, slot_masks=masks)
        else:
            every_row = encode(layers, heads, x, block_diagonal_mask(seg))

        got = tiny_model.encode_layout(layout, slotted=slotted)
        assert got.shape == every_row.shape
        np.testing.assert_allclose(got[live], every_row[live], rtol=0, atol=1e-12)
        assert not got[np.logical_not(live)].any()

    def test_embed_shape_mismatch_rejected(self, tiny_model):
        with pytest.raises(ValueError, match="differ"):
            tiny_model.embed(
                np.zeros((1, 3), dtype=np.int64), np.zeros((1, 4), dtype=np.int64)
            )


class TestDecoderCorrectness:
    def test_concat_decode_equals_single(self, tiny_model, tokenized_requests):
        reqs = tokenized_requests([5, 3, 6, 2])
        layout = _concat_layout(reqs, rows=2, cap=10)
        gen = tiny_model.greedy_decode(layout, max_new_tokens=6)
        for _, seg in layout.segments():
            ref = tiny_model.greedy_decode_single(seg.request.tokens, max_new_tokens=6)
            assert gen.outputs[seg.request.request_id] == ref

    def test_completion_steps_recorded(self, tiny_model, tokenized_requests):
        reqs = tokenized_requests([4, 4])
        layout = _concat_layout(reqs, rows=1, cap=8)
        gen = tiny_model.greedy_decode(layout, max_new_tokens=3)
        for r in reqs:
            assert 1 <= gen.completion_step[r.request_id] <= 3
            assert len(gen.outputs[r.request_id]) <= 3

    def test_empty_layout(self, tiny_model):
        layout = BatchLayout(num_rows=2, row_length=8)
        gen = tiny_model.greedy_decode(layout)
        assert gen.outputs == {}
        assert gen.steps_run == 0

    def test_decode_budget_respected(self, tiny_model, tokenized_requests):
        reqs = tokenized_requests([3])
        layout = _concat_layout(reqs, rows=1, cap=4)
        gen = tiny_model.greedy_decode(layout, max_new_tokens=2)
        assert len(gen.outputs[reqs[0].request_id]) <= 2


class TestParams:
    def test_init_deterministic(self, tiny_config):
        a = init_seq2seq(tiny_config, seed=5)
        b = init_seq2seq(tiny_config, seed=5)
        np.testing.assert_array_equal(a.embedding, b.embedding)
        np.testing.assert_array_equal(
            a.encoder_layers[0].self_attn.w_q, b.encoder_layers[0].self_attn.w_q
        )

    def test_different_seeds_differ(self, tiny_config):
        a = init_seq2seq(tiny_config, seed=5)
        b = init_seq2seq(tiny_config, seed=6)
        assert not np.allclose(a.embedding, b.embedding)

    def test_num_parameters_positive_and_stable(self, tiny_config):
        p = init_seq2seq(tiny_config, seed=0)
        n = p.num_parameters()
        assert n > 0
        assert n == p.num_parameters()

    def test_layer_counts(self, tiny_config):
        p = init_seq2seq(tiny_config, seed=0)
        assert len(p.encoder_layers) == tiny_config.num_encoder_layers
        assert len(p.decoder_layers) == tiny_config.num_decoder_layers

    def test_fused_qkv_views_stay_in_step(self, tiny_config, tokenized_requests):
        """w_q … b_v are views of ``AttentionParams.qkv``: rebinding one
        raises, and writing into one in place reaches the fused projection
        that the packed encoder runs."""
        model = Seq2SeqModel(tiny_config, seed=3)
        layout = _concat_layout(tokenized_requests([5, 3, 5, 2]), rows=2, cap=10)
        before = model.encode_layout(layout)
        attn = model.params.encoder_layers[0].self_attn
        for name in ("qkv", "w_q", "w_k", "w_v", "b_q", "b_k", "b_v"):
            value = getattr(attn, name)
            fresh = tuple(a.copy() for a in value) if name == "qkv" else value.copy()
            with pytest.raises(AttributeError, match="fused qkv"):
                setattr(attn, name, fresh)
        attn.w_o = attn.w_o  # not fused: rebinding is fine
        attn.w_k *= 1.5
        attn.b_v += 0.1
        enc = model.encode_layout(layout)
        assert not np.allclose(enc, before)
        for k, seg in layout.segments():
            single = model.encode_single(seg.request.tokens)[0]
            np.testing.assert_allclose(enc[k, seg.start : seg.end], single, atol=ATOL)
