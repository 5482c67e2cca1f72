"""Tests for the numeric primitives in repro.numerics."""

import numpy as np
import pytest

from repro.core.concat_attention import attention
from repro.model.feedforward import feed_forward
from repro.model.params import FeedForwardParams
from repro.numerics import (
    add_norm,
    epilogue,
    gelu,
    layer_norm,
    linear,
    relu,
    softmax,
)


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


# The out-of-place formulas of the primitives before their epilogues
# went in place, kept literally: the in-place versions must match them
# byte for byte and dtype for dtype.


def old_softmax(x, axis=-1):
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    denom = shifted.sum(axis=axis, keepdims=True)
    return shifted / denom


def old_layer_norm(x, gamma, beta, eps=1e-5):
    centred = x - x.mean(axis=-1, keepdims=True)
    var = (centred * centred).mean(axis=-1, keepdims=True)
    return centred / np.sqrt(var + eps) * gamma + beta


def old_linear(x, weight, bias=None):
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def old_feed_forward(params, x):
    return old_linear(
        np.maximum(old_linear(x, params.w1, params.b1), 0.0), params.w2, params.b2
    )


def old_attention(q, k, v, mask=None, scale=None):
    d = q.shape[-1]
    s = (1.0 / np.sqrt(d)) if scale is None else scale
    scores = (q @ np.swapaxes(k, -1, -2)) * s
    if mask is not None:
        scores = scores + mask
    return old_softmax(scores, axis=-1) @ v


def same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestInPlaceEpilogues:
    """float64 and float32 inputs, float64 parameters, as the model runs them."""

    def test_linear(self, rng, dtype):
        x = rng.standard_normal((7, 5, 16)).astype(dtype)
        w, b = rng.standard_normal((16, 24)), rng.standard_normal(24)
        assert same_bytes(linear(x, w, b), old_linear(x, w, b))
        assert same_bytes(linear(x, w), old_linear(x, w))
        assert same_bytes(linear(x, w.astype(dtype), b), old_linear(x, w.astype(dtype), b))

    def test_layer_norm(self, rng, dtype):
        x = (rng.standard_normal((3, 9, 32)) * 7.0 + 2.0).astype(dtype)
        gamma, beta = rng.standard_normal(32), rng.standard_normal(32)
        assert same_bytes(layer_norm(x, gamma, beta), old_layer_norm(x, gamma, beta))
        g32, b32 = gamma.astype(dtype), beta.astype(dtype)
        assert same_bytes(layer_norm(x, g32, beta), old_layer_norm(x, g32, beta))
        assert same_bytes(layer_norm(x, g32, b32), old_layer_norm(x, g32, b32))

    def test_add_norm(self, rng, dtype):
        x = rng.standard_normal((4, 32)).astype(dtype)
        sub = rng.standard_normal((4, 32))
        gamma, beta = rng.standard_normal(32), rng.standard_normal(32)
        want = old_layer_norm(x + sub, gamma, beta)
        x_before = x.copy()
        assert same_bytes(add_norm(x, sub, gamma, beta), want)
        assert same_bytes(x, x_before), "the residual input must not be written"
        # A float32 sublayer under a float64 residual keeps float64.
        sub32 = rng.standard_normal((4, 32)).astype(np.float32)
        want = old_layer_norm(x.astype(np.float64) + sub32, gamma, beta)
        assert same_bytes(add_norm(x.astype(np.float64), sub32, gamma, beta), want)

    @pytest.mark.parametrize("axis", [-1, 0])
    def test_softmax(self, rng, dtype, axis):
        x = (rng.standard_normal((5, 11)) * 20.0).astype(dtype)
        assert same_bytes(softmax(x, axis=axis), old_softmax(x, axis=axis))

    def test_feed_forward(self, rng, dtype):
        params = FeedForwardParams.init(rng, 16, 64)
        params.b1 = rng.standard_normal(64)
        x = rng.standard_normal((6, 16)).astype(dtype)
        assert same_bytes(feed_forward(params, x), old_feed_forward(params, x))

    @pytest.mark.parametrize("scale", [None, 0.25])
    def test_attention(self, rng, dtype, scale):
        q, k, v = (rng.standard_normal((2, 3, 9, 8)).astype(dtype) for _ in range(3))
        assert same_bytes(attention(q, k, v, scale=scale), old_attention(q, k, v, scale=scale))
        # A float64 additive mask on float32 scores must not be added in place.
        mask = np.where(rng.random((2, 1, 9, 9)) < 0.3, -1e9, 0.0)
        assert same_bytes(
            attention(q, k, v, mask=mask, scale=scale),
            old_attention(q, k, v, mask=mask, scale=scale),
        )


class TestEpilogue:
    def test_writes_in_place_when_dtype_and_shape_hold(self):
        fresh = np.ones((3, 4))
        assert epilogue(np.add, fresh, np.arange(4.0)) is fresh

    @pytest.mark.parametrize(
        "fresh, other",
        [
            (np.ones((3, 4), np.float32), np.ones(4)),  # float64 would be cast down
            (np.ones((3, 4), np.float32), np.float64(2.0)),
            (np.ones((1, 4)), np.ones((3, 4))),  # the result is wider
            (np.ones((3, 1)), np.ones(4)),
        ],
    )
    def test_declines_when_the_result_would_change(self, fresh, other):
        want = np.multiply(fresh, other)
        got = epilogue(np.multiply, fresh.copy(), other)
        assert same_bytes(got, want)
