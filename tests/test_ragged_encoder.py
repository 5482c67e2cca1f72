"""The packed per-segment encoder ≡ solo inference ≡ Eq. 5, and does Σℓ² work.

``Seq2SeqModel.encode_layout`` runs every concatenated layout through
``encode_packed``: useful tokens only, one maskless batched matmul per
run of equal-length segments.  Three guards:

- Hypothesis equivalence over drawn layouts from both packers (and the
  named edge cases as explicit examples): packed ≡ ``encode_single`` per
  request ≡ the dense Eq. 5 oracle on useful positions, zeros elsewhere,
  and decoding through it ≡ ``greedy_decode_single`` token for token;
- kernel edge cases carried on the ROADMAP: fully padded row or slot,
  ragged trailing slot, float32 inputs;
- a deterministic work guard: with ``attention`` / ``linear`` counted,
  one concat encode issues exactly ``H·Σℓ²`` score elements per layer
  and ``T`` rows per linear, and never builds a block-diagonal mask — a
  silent fall-back to ``W²`` fails here without a clock.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.concat_attention import att_cb, att_cb_s
from repro.core.layout import BatchLayout
from repro.core.masks import block_diagonal_mask
from repro.core.packing import pack_first_fit, pack_in_order
from repro.core.slotting import pack_into_slots
from repro.experiments.ablations import encode_full_width
from repro.model import encoder, feedforward, seq2seq
from repro.model.encoder import encode_packed
from repro.types import make_requests

from tests.conftest import make_tokenized_requests

# float64 throughout: packed, solo and Eq. 5 differ by summation order only.
EXACT = 1e-10
# float32 *inputs* (weights and softmax stay float64): the embedding is
# rounded to 2^-24 relative, activations are O(1) after LayerNorm and two
# layers amplify it by well under 100x.
FLOAT32_INPUT = 1e-4


def build_layout(lengths, rows, slack, packer, cfg):
    """Pack ``lengths`` with ``slack`` spare tokens per row beyond an exact fit."""
    reqs = make_tokenized_requests(lengths, cfg, seed=sum(lengths) + len(lengths))
    longest = max(lengths, default=1)
    cap = max(longest, -(-sum(lengths) // rows)) + slack
    if packer == "slotted":
        return pack_into_slots(reqs, rows, cap, longest).layout
    pack = pack_in_order if packer == "in_order" else pack_first_fit
    return pack(reqs, rows, cap).layout


@st.composite
def layouts(draw):
    # A narrow length range makes duplicate lengths and 1-token segments common.
    lengths = draw(st.lists(st.integers(1, 6), min_size=0, max_size=9))
    rows = draw(st.integers(1, 4))
    slack = draw(st.sampled_from([0, 0, 1, 5]))
    packer = draw(st.sampled_from(["first_fit", "in_order", "slotted"]))
    return lengths, rows, slack, packer


class TestPackedEquivalence:
    @given(case=layouts())
    @example(case=([], 3, 0, "first_fit"))  # fully empty layout
    @example(case=([5], 1, 0, "in_order"))  # one request, row exactly full
    @example(case=([4], 3, 2, "first_fit"))  # empty rows
    @example(case=([1, 1, 1, 1], 2, 0, "in_order"))  # length-1 segments, full rows
    @example(case=([3, 3, 3, 3, 6, 6], 3, 0, "first_fit"))  # duplicates, full rows
    @example(case=([2, 5, 2, 5, 1], 2, 3, "slotted"))  # slots with gaps
    @settings(max_examples=40, deadline=None)
    def test_packed_equals_solo_equals_eq5(self, tiny_model, case):
        lengths, rows, slack, packer = case
        layout = build_layout(lengths, rows, slack, packer, tiny_model.config)
        layout.validate()
        enc = tiny_model.encode_layout(layout)
        assert enc.shape == (rows, layout.effective_width, tiny_model.config.d_model)
        useful = layout.segment_id_matrix() >= 0
        assert not enc[~useful].any(), "padding positions must come back as zeros"
        for k, seg in layout.segments():
            alone = tiny_model.encode_single(seg.request.tokens)[0]
            assert np.abs(enc[k, seg.start : seg.end] - alone).max() <= EXACT
        if layout.num_requests:
            oracle = encode_full_width(tiny_model, layout)
            assert np.abs(enc[useful] - oracle[useful]).max() <= EXACT

    @given(case=layouts(), budget=st.integers(1, 4))
    @example(case=([], 2, 0, "in_order"), budget=3)
    @example(case=([1, 1, 4, 4, 4], 2, 0, "first_fit"), budget=4)
    @settings(max_examples=20, deadline=None)
    def test_decode_equals_solo(self, tiny_model, case, budget):
        lengths, rows, slack, packer = case
        layout = build_layout(lengths, rows, slack, packer, tiny_model.config)
        res = tiny_model.greedy_decode(layout, max_new_tokens=budget)
        assert set(res.outputs) == {r.request_id for r in layout.requests()}
        for req in layout.requests():
            assert res.outputs[req.request_id] == tiny_model.greedy_decode_single(
                req.tokens, max_new_tokens=budget
            )

    def test_segment_order_is_free_but_sorting_batches(self, tiny_model, rng):
        """``encode_packed`` is correct in any order; runs of equal length batch."""
        cfg = tiny_model.config
        lengths = np.array([3, 5, 3, 1, 5, 3])
        x = rng.normal(size=(lengths.sum(), cfg.d_model))
        layers = tiny_model.params.encoder_layers
        out = encode_packed(layers, cfg.num_heads, x, lengths)
        ends = np.cumsum(lengths)
        for a, b in zip(ends - lengths, ends):
            alone = encode_packed(layers, cfg.num_heads, x[a:b], [b - a])
            assert np.abs(out[a:b] - alone).max() <= EXACT

    def test_missing_tokens_is_a_typed_error(self, tiny_model):
        layout = pack_first_fit(make_requests([4, 3], start_id=0), 1, 8).layout
        with pytest.raises(ValueError, match="request 0 has no tokens"):
            tiny_model.encode_layout(layout)


class TestKernelEdgeCases:
    def test_fully_padded_row_is_zeros_not_nan(self, tiny_model):
        layout = build_layout([4, 2], 3, 1, "in_order", tiny_model.config)
        assert not layout.rows[2].segments
        for slotted in (False, True):
            enc = tiny_model.encode_layout(layout, slotted=slotted)
            assert np.isfinite(enc).all()
            assert not enc[2].any()

    def test_fully_padded_slot_is_finite(self, tiny_model):
        """A slot no request landed in: every score of it is masked."""
        reqs = make_tokenized_requests([3, 3, 3, 3, 2], tiny_model.config)
        layout = pack_into_slots(reqs, 2, 9, 3).layout
        assert [len(s.segments) for s in layout.rows[1].slots] == [1, 1, 0]
        slotted = tiny_model.encode_layout(layout, slotted=True)
        packed = tiny_model.encode_layout(layout)
        useful = layout.segment_id_matrix() >= 0
        assert np.isfinite(slotted).all()
        assert np.abs(slotted[useful] - packed[useful]).max() <= EXACT

    @pytest.mark.parametrize("sizes", [(4, 4, 4), (4, 4, 2), (4, 3, 5), (6,)])
    def test_slot_spans_equal_and_ragged(self, rng, sizes):
        """Eq. 8 ≡ Eq. 5 on valid positions: equal slots, ragged tail, no-mask slot."""
        ends = np.cumsum(sizes)
        spans = list(zip((ends - sizes).tolist(), ends.tolist()))
        w = int(ends[-1])
        # Two requests per slot, the last slot's tail padded.
        seg = np.full((3, w), -1)
        for i, (a, b) in enumerate(spans):
            seg[:, a : a + 1] = 2 * i
            seg[:, a + 1 : b] = 2 * i + 1
        seg[1, spans[-1][1] - 1] = -1
        q, k, v = rng.normal(size=(3, 3, 2, w, 5))
        masks = [block_diagonal_mask(seg[:, a:b])[:, None] for a, b in spans]
        if len(spans) > 1:
            # A slot holding one request needs no mask.
            seg[:, : spans[0][1]] = 0
            masks[0] = None
        out = att_cb_s(q, k, v, spans, masks)
        ref = att_cb(q, k, v, block_diagonal_mask(seg)[:, None])
        valid = np.broadcast_to((seg >= 0)[:, None, :], out.shape[:-1])
        assert np.abs(out[valid] - ref[valid]).max() <= EXACT
        assert np.isfinite(out).all()

    def test_float32_inputs_within_tolerance(self, tiny_model, rng):
        cfg = tiny_model.config
        lengths = [1, 2, 2, 7]
        x = rng.normal(size=(sum(lengths), cfg.d_model))
        layers = tiny_model.params.encoder_layers
        exact = encode_packed(layers, cfg.num_heads, x, lengths)
        single = encode_packed(layers, cfg.num_heads, x.astype(np.float32), lengths)
        assert np.abs(single - exact).max() <= FLOAT32_INPUT
        q, k, v = rng.normal(size=(3, 2, 8, 4))
        spans = [(0, 4), (4, 8)]
        assert (
            np.abs(
                att_cb_s(*(t.astype(np.float32) for t in (q, k, v)), spans)
                - att_cb_s(q, k, v, spans)
            ).max()
            <= FLOAT32_INPUT
        )


class TestWorkGuard:
    LENGTHS = [3, 7, 3, 1, 5, 7, 2]

    @pytest.fixture()
    def counted(self, monkeypatch):
        """Count score elements and linear rows × columns; forbid the Eq. 6 mask."""
        seen = {"scores": 0, "linear_rows": [], "linear_work": 0}
        attention, linear = encoder.attention, encoder.linear

        def count_attention(q, k, v, **kwargs):
            seen["scores"] += int(np.prod(q.shape[:-1])) * k.shape[-2]
            return attention(q, k, v, **kwargs)

        def count_linear(x, weight, bias=None):
            seen["linear_rows"].append(x.shape[:-1])
            seen["linear_work"] += int(np.prod(x.shape[:-1])) * weight.shape[-1]
            return linear(x, weight, bias)

        def no_mask(*args, **kwargs):
            raise AssertionError("a concat encode built a block-diagonal mask")

        monkeypatch.setattr(encoder, "attention", count_attention)
        monkeypatch.setattr(encoder, "linear", count_linear)
        monkeypatch.setattr(feedforward, "linear", count_linear)
        monkeypatch.setattr(seq2seq, "block_diagonal_mask", no_mask)
        monkeypatch.setattr("repro.core.masks.block_diagonal_mask", no_mask)
        return seen

    def test_concat_encode_does_sum_l_squared_work(self, tiny_model, counted):
        cfg = tiny_model.config
        layout = build_layout(self.LENGTHS, 2, 6, "first_fit", cfg)
        assert layout.scheme == "concat"
        tiny_model.encode_layout(layout)
        tokens = sum(self.LENGTHS)
        assert tokens < layout.num_rows * layout.effective_width
        per_layer = cfg.num_heads * sum(n * n for n in self.LENGTHS)
        assert counted["scores"] == cfg.num_encoder_layers * per_layer
        # The fused Q/K/V, O and the two FFN linears, each over the useful
        # tokens only, and together exactly the rows × output columns of
        # six separate linears (Q, K, V, O, FFN in, FFN out): no padding
        # row and no extra column.
        assert counted["linear_rows"] == [(tokens,)] * (4 * cfg.num_encoder_layers)
        d, d_ff = cfg.d_model, cfg.ffn_dim
        six_linears = tokens * (4 * d + d_ff + d)
        assert counted["linear_work"] == cfg.num_encoder_layers * six_linears

    def test_server_path_has_no_dense_intermediate(
        self, tiny_model, counted, monkeypatch
    ):
        """``greedy_decode`` without ``memory=``: packed encoder → packed K/V."""
        layout = build_layout(self.LENGTHS, 2, 6, "in_order", tiny_model.config)

        def no_dense(*args, **kwargs):
            raise AssertionError("decode materialised a (B, W, d) encoder memory")

        monkeypatch.setattr(type(tiny_model), "encode_layout", no_dense)
        res = tiny_model.greedy_decode(layout, max_new_tokens=2)
        assert len(res.outputs) == len(self.LENGTHS)
        assert counted["scores"] == tiny_model.config.num_encoder_layers * (
            tiny_model.config.num_heads * sum(n * n for n in self.LENGTHS)
        )

    def test_padded_schemes_keep_the_dense_stack(self, tiny_model):
        """Naive / turbo padding is the baseline being measured: still computed."""
        reqs = make_tokenized_requests([2, 6], tiny_model.config)
        seen = []
        dense = encoder.encode

        def spy(layers, num_heads, x, *args, **kwargs):
            seen.append(x.shape)
            return dense(layers, num_heads, x, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(seq2seq, "encode", spy)
            tiny_model.encode_layout(BatchLayout.naive(reqs))
            tiny_model.encode_layout(BatchLayout.single_per_row(reqs, 8))
        assert seen == [(2, 6, tiny_model.config.d_model)] * 2
