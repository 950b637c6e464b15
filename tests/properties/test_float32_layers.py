"""Differential oracle for the float32 layers of the Figure 13 ResNet.

The float64 references of ``tests/ml/test_layers.py`` are the
definition: the einsum ``Conv1d`` and the textbook BatchNorm formulas,
plus the plain ReLU and Dense products.  Each float32 layer's forward
and backward pass, run on float32 inputs and parameters, must stay in
float32 and agree with its reference on the float64 values of the same
inputs and parameters within float32 rounding.  A float32 sum errs
relative to the magnitudes of its terms, not to its result, which can
cancel; so the tolerance is ``RTOL`` times the larger of the
reference's largest entry and its terms' largest summed magnitude (for
the linear layers, the same reference on absolute values).  Every case
runs a full batch and then a partial one through the same layer, so the
scratch buffers are reused and reallocated.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import BatchNorm1d, Conv1d, Dense, ReLU
from repro.ml.layers import _col2im
from tests.ml.test_layers import (
    einsum_conv,
    float64_twin,
    reference_batchnorm,
)

RTOL = 1e-5
F32 = np.dtype(np.float32)


def to32(layer):
    layer.params = {name: value.astype(np.float32)
                    for name, value in layer.params.items()}
    return layer


def batches(data, full):
    """A full batch, then a partial one (1..full-1 samples)."""
    return (full, data.draw(st.integers(1, full - 1)))


def assert_close32(actual, expected, magnitude):
    assert actual.dtype == F32
    scale = max(float(np.abs(expected).max()), float(magnitude.max()))
    assert float(np.abs(actual - expected).max()) <= RTOL * scale


def absolute(twin):
    twin.params = {name: np.abs(value) for name, value in twin.params.items()}
    return twin


def batchnorm_magnitudes(bn, x, grad, training):
    """Bounds on the summands behind each of ``reference_batchnorm``'s
    outputs (same order), from ``bn``'s float64 twin."""
    gamma = np.abs(bn.params["gamma"])[None, :, None]
    beta = np.abs(bn.params["beta"])[None, :, None]
    if training:
        mean, var = x.mean(axis=(0, 2)), x.var(axis=(0, 2))
    else:
        mean, var = bn.running_mean, bn.running_var
    inv_std = (1.0 / np.sqrt(var + bn.eps))[None, :, None]
    x_hat = np.abs(x - mean[None, :, None]) * inv_std
    sum_g = np.abs(grad).sum(axis=(0, 2))
    sum_gx = (np.abs(grad) * x_hat).sum(axis=(0, 2))
    grad_x = np.abs(grad)
    if training:
        n_eff = x.shape[0] * x.shape[2]
        grad_x = grad_x + (sum_g[None, :, None]
                           + x_hat * sum_gx[None, :, None]) / n_eff
    running_mean = (bn.momentum * np.abs(bn.running_mean)
                    + (1 - bn.momentum) * np.abs(x).mean(axis=(0, 2)))
    return (gamma * x_hat + beta, gamma * inv_std * grad_x, sum_gx, sum_g,
            running_mean, bn.running_var)


@settings(max_examples=60, deadline=None)
@given(
    kernel=st.sampled_from([1, 3, 7]),
    stride=st.sampled_from([1, 2]),
    half_length=st.integers(1, 40),
    c_in=st.integers(1, 4),
    c_out=st.integers(1, 5),
    full=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_conv1d(kernel, stride, half_length, c_in, c_out, full, seed, data):
    rng = np.random.default_rng(seed)
    conv = to32(Conv1d(c_in, c_out, kernel=kernel, stride=stride, rng=rng))
    conv.params["b"] = rng.normal(size=c_out).astype(np.float32)
    length = 2 * half_length + 1  # odd lengths
    for batch in batches(data, full):
        x = rng.normal(size=(batch, c_in, length)).astype(np.float32)
        out = conv.forward(x)
        grad = rng.normal(size=out.shape).astype(np.float32)
        grad_x = conv.backward(grad)
        x64, grad64 = x.astype(np.float64), grad.astype(np.float64)
        want_out, want_w, want_cols = einsum_conv(float64_twin(conv), x64,
                                                  grad64)
        mag_out, mag_w, mag_cols = einsum_conv(absolute(float64_twin(conv)),
                                               np.abs(x64), np.abs(grad64))
        assert_close32(out, want_out, mag_out)
        assert_close32(conv.grads["w"], want_w, mag_w)
        assert_close32(conv.grads["b"], grad64.sum(axis=(0, 2)),
                       np.abs(grad64).sum(axis=(0, 2)))
        assert_close32(grad_x, _col2im(want_cols, x.shape, kernel, stride,
                                       conv.pad),
                       _col2im(mag_cols, x.shape, kernel, stride, conv.pad))
        assert conv._cols.dtype == conv._grad_x.dtype == F32


@settings(max_examples=60, deadline=None)
@given(
    channels=st.integers(1, 6),
    half_length=st.integers(1, 40),
    full=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_batchnorm(channels, half_length, full, seed, data):
    rng = np.random.default_rng(seed)
    bn = to32(BatchNorm1d(channels))
    bn.params["gamma"] = rng.normal(1.0, 0.3, channels).astype(np.float32)
    bn.params["beta"] = rng.normal(0.0, 0.3, channels).astype(np.float32)
    bn.running_mean = bn.running_mean.astype(np.float32)
    bn.running_var = bn.running_var.astype(np.float32)
    length = 2 * half_length + 1
    for training in (True, False):
        bn.training = training
        for batch in batches(data, full):
            x = rng.normal(2.0, 1.5, (batch, channels, length))
            x = x.astype(np.float32)
            grad = rng.normal(size=x.shape).astype(np.float32)
            twin = float64_twin(bn)
            x64, grad64 = x.astype(np.float64), grad.astype(np.float64)
            want = reference_batchnorm(twin, x64, grad64, training)
            magnitudes = batchnorm_magnitudes(twin, x64, grad64, training)
            out = bn.forward(x)
            grad_x = bn.backward(grad)
            got = (out, grad_x, bn.grads["gamma"], bn.grads["beta"],
                   bn.running_mean, bn.running_var)
            for actual, expected, magnitude in zip(got, want, magnitudes):
                assert_close32(actual, expected, magnitude)


@settings(max_examples=40, deadline=None)
@given(
    in_features=st.integers(1, 40),
    out_features=st.integers(1, 20),
    full=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_dense_and_relu(in_features, out_features, full, seed, data):
    rng = np.random.default_rng(seed)
    dense = to32(Dense(in_features, out_features, rng=rng))
    dense.params["b"] = rng.normal(size=out_features).astype(np.float32)
    w64, b64 = (dense.params[name].astype(np.float64) for name in ("w", "b"))
    relu = ReLU()
    for batch in batches(data, full):
        x = rng.normal(size=(batch, in_features)).astype(np.float32)
        grad = rng.normal(size=(batch, out_features)).astype(np.float32)
        x64, grad64 = x.astype(np.float64), grad.astype(np.float64)
        abs_x, abs_grad, abs_w = np.abs(x64), np.abs(grad64), np.abs(w64)
        assert_close32(dense.forward(x), x64 @ w64 + b64,
                       abs_x @ abs_w + np.abs(b64))
        assert_close32(dense.backward(grad), grad64 @ w64.T,
                       abs_grad @ abs_w.T)
        assert_close32(dense.grads["w"], x64.T @ grad64, abs_x.T @ abs_grad)
        assert_close32(dense.grads["b"], grad64.sum(axis=0),
                       abs_grad.sum(axis=0))
        # ReLU rounds nothing: exact against the float64 reference
        grad = rng.normal(size=x.shape).astype(np.float32)
        out, grad_x = relu.forward(x), relu.backward(grad)
        assert out.dtype == grad_x.dtype == F32
        assert np.array_equal(out, np.where(x64 > 0, x64, 0.0))
        assert np.array_equal(grad_x, grad.astype(np.float64) * (x64 > 0))
