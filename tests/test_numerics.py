"""Tests for the numeric primitives in repro.numerics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.numerics import gelu, layer_norm, linear, log_softmax, relu, softmax


class TestSoftmax:
    def test_sums_to_one(self, rng):
        x = rng.normal(size=(3, 5))
        assert np.allclose(softmax(x).sum(axis=-1), 1.0)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(4,))
        assert np.allclose(softmax(x), softmax(x + 1000.0))

    def test_large_negative_mask_underflows_to_zero(self):
        x = np.array([0.0, 0.0, -1e9])
        s = softmax(x)
        assert s[2] == 0.0
        assert np.allclose(s[:2], 0.5)

    def test_no_overflow_on_huge_inputs(self):
        x = np.array([1e8, 1e8 + 1.0])
        s = softmax(x)
        assert np.isfinite(s).all()

    def test_axis_argument(self, rng):
        x = rng.normal(size=(3, 4))
        assert np.allclose(softmax(x, axis=0).sum(axis=0), 1.0)

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 6)),
            elements=st.floats(-50, 50),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_log_softmax_consistent(self, x):
        assert np.allclose(np.exp(log_softmax(x)), softmax(x), atol=1e-12)


class TestActivations:
    def test_relu(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_gelu_limits(self):
        assert gelu(np.array([0.0]))[0] == 0.0
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-4)
        assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-4)

    def test_gelu_midpoint(self):
        # gelu(1) ≈ 0.8412 (tanh approximation)
        assert gelu(np.array([1.0]))[0] == pytest.approx(0.8412, abs=1e-3)


class TestLayerNorm:
    def test_normalises_last_axis(self, rng):
        x = rng.normal(loc=5.0, scale=3.0, size=(2, 4, 8))
        out = layer_norm(x, np.ones(8), np.zeros(8))
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_gamma_beta_applied(self, rng):
        x = rng.normal(size=(3, 4))
        out = layer_norm(x, 2.0 * np.ones(4), 3.0 * np.ones(4))
        base = layer_norm(x, np.ones(4), np.zeros(4))
        assert np.allclose(out, 2.0 * base + 3.0)

    @pytest.mark.parametrize("shape", [(3, 17, 32), (5, 128), (1, 1, 7)])
    def test_bit_equal_to_mean_var_formula(self, rng, shape):
        """Centring once must not change a single bit of the result."""
        x = rng.standard_normal(shape) * rng.uniform(0.1, 50.0)
        gamma = rng.standard_normal(shape[-1])
        beta = rng.standard_normal(shape[-1])
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        old = (x - mean) / np.sqrt(var + 1e-5) * gamma + beta
        assert np.array_equal(layer_norm(x, gamma, beta), old)


class TestLinear:
    def test_matches_matmul(self, rng):
        x = rng.normal(size=(2, 3))
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=(5,))
        assert np.allclose(linear(x, w, b), x @ w + b)

    def test_bias_optional(self, rng):
        x = rng.normal(size=(2, 3))
        w = rng.normal(size=(3, 5))
        assert np.allclose(linear(x, w), x @ w)
