"""Tests for checkpoint serialization."""

import numpy as np

from repro.model.params import init_seq2seq
from repro.model.seq2seq import Seq2SeqModel
from repro.model.serialization import load_params, save_params


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path, tiny_config):
        params = init_seq2seq(tiny_config, seed=9)
        path = tmp_path / "ckpt.npz"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.config == tiny_config
        np.testing.assert_array_equal(loaded.embedding, params.embedding)
        np.testing.assert_array_equal(
            loaded.encoder_layers[1].ffn.w1, params.encoder_layers[1].ffn.w1
        )
        np.testing.assert_array_equal(
            loaded.decoder_layers[0].cross_attn.w_k,
            params.decoder_layers[0].cross_attn.w_k,
        )

    def test_loaded_model_produces_identical_outputs(
        self, tmp_path, tiny_config, tokenized_requests
    ):
        from repro.core.packing import pack_first_fit

        original = Seq2SeqModel(tiny_config, seed=4)
        path = tmp_path / "model.npz"
        save_params(original.params, path)
        restored = Seq2SeqModel(tiny_config, params=load_params(path))

        reqs = tokenized_requests([5, 3, 6])
        layout = pack_first_fit(reqs, num_rows=1, row_length=16).layout
        a = original.greedy_decode(layout, max_new_tokens=4)
        b = restored.greedy_decode(layout, max_new_tokens=4)
        assert a.outputs == b.outputs

    def test_suffix_added_on_load(self, tmp_path, tiny_config):
        params = init_seq2seq(tiny_config, seed=0)
        path = tmp_path / "weights.npz"
        save_params(params, path)
        loaded = load_params(tmp_path / "weights")  # no suffix
        assert loaded.config == tiny_config

    def test_num_parameters_preserved(self, tmp_path, tiny_config):
        params = init_seq2seq(tiny_config, seed=1)
        save_params(params, tmp_path / "p.npz")
        assert load_params(tmp_path / "p.npz").num_parameters() == params.num_parameters()
