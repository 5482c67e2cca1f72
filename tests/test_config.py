"""Tests for configuration dataclasses."""

import pytest

from repro.config import BatchConfig, ModelConfig, SchedulerConfig


class TestModelConfig:
    def test_paper_settings(self):
        cfg = ModelConfig.paper()
        assert cfg.d_model == 3072
        assert cfg.num_heads == 8
        assert cfg.num_encoder_layers == 3
        assert cfg.num_decoder_layers == 3
        assert cfg.max_len == 400

    def test_head_dim(self):
        assert ModelConfig.paper().head_dim == 384

    def test_ffn_dim_defaults_to_4x(self):
        assert ModelConfig(d_model=64, num_heads=4).ffn_dim == 256
        assert ModelConfig(d_model=64, num_heads=4, d_ff=100).ffn_dim == 100

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(d_model=10, num_heads=3)

    def test_tiny_is_small(self):
        cfg = ModelConfig.tiny()
        assert cfg.d_model <= 64
        assert cfg.num_encoder_layers <= 2


class TestBatchConfig:
    def test_capacity(self):
        assert BatchConfig(num_rows=8, row_length=50).capacity_tokens == 400

    @pytest.mark.parametrize("rows,length", [(0, 10), (10, 0), (-1, 5)])
    def test_invalid_geometry(self, rows, length):
        with pytest.raises(ValueError):
            BatchConfig(num_rows=rows, row_length=length)


class TestSchedulerConfig:
    def test_paper_competitive_ratio(self):
        # η = q = ½ gives the ⅕ ratio quoted after Theorem 5.1.
        assert SchedulerConfig(eta=0.5, q=0.5).competitive_ratio == pytest.approx(0.2)

    def test_general_ratio_formula(self):
        cfg = SchedulerConfig(eta=0.3, q=0.7)
        assert cfg.competitive_ratio == pytest.approx(0.21 / 1.21)

    @pytest.mark.parametrize("eta,q", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_open_interval_enforced(self, eta, q):
        with pytest.raises(ValueError):
            SchedulerConfig(eta=eta, q=q)
