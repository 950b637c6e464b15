"""Layer unit tests, including numerical gradient checks."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.ml import (
    BatchNorm1d,
    Conv1d,
    Dense,
    Flatten,
    GlobalAvgPool1d,
    ReLU,
    Sequential,
)
from repro.ml.layers import _col2im, _im2col
from repro.ml.train import cross_entropy


def numerical_gradient(fn, array, eps=1e-5):
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + eps
        plus = fn()
        array[idx] = original - eps
        minus = fn()
        array[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


def check_layer_gradients(layer, x, rtol=1e-4, atol=1e-6):
    """Verify input and parameter gradients against finite differences
    for a scalar loss sum(layer(x))."""
    layer.train()

    def loss():
        return float(layer.forward(x).sum())

    out = layer.forward(x)
    analytic_input = layer.backward(np.ones_like(out))
    numeric_input = numerical_gradient(loss, x)
    np.testing.assert_allclose(analytic_input, numeric_input,
                               rtol=rtol, atol=atol)
    for (owner, name) in layer.parameters():
        numeric = numerical_gradient(loss, owner.params[name])
        np.testing.assert_allclose(owner.grads[name], numeric,
                                   rtol=rtol, atol=atol, err_msg=name)


class TestConv1d:
    def test_output_shape(self):
        conv = Conv1d(2, 4, kernel=3)
        out = conv.forward(np.zeros((5, 2, 16)))
        assert out.shape == (5, 4, 16)  # same padding, stride 1

    def test_stride_halves_length(self):
        conv = Conv1d(1, 2, kernel=3, stride=2)
        out = conv.forward(np.zeros((1, 1, 16)))
        assert out.shape[2] == 8

    def test_gradients(self):
        rng = np.random.default_rng(0)
        conv = Conv1d(2, 3, kernel=3, rng=rng)
        x = rng.normal(size=(2, 2, 7))
        check_layer_gradients(conv, x)

    def test_gradients_with_stride(self):
        rng = np.random.default_rng(1)
        conv = Conv1d(1, 2, kernel=3, stride=2, rng=rng)
        x = rng.normal(size=(2, 1, 9))
        check_layer_gradients(conv, x)

    def test_wrong_channel_count_rejected(self):
        conv = Conv1d(2, 4, kernel=3)
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 3, 8)))

    def test_known_convolution(self):
        # identity kernel reproduces the input
        conv = Conv1d(1, 1, kernel=1, pad=0)
        conv.params["w"][:] = 1.0
        conv.params["b"][:] = 0.0
        x = np.arange(6, dtype=float).reshape(1, 1, 6)
        np.testing.assert_allclose(conv.forward(x), x)


def einsum_conv(conv, x, grad):
    """The einsum formulation of Conv1d (the pre-BLAS code): output,
    dL/dw and dL/dcols, from the layer's own im2col."""
    cols = _im2col(x, conv.kernel, conv.stride, conv.pad)
    w = conv.params["w"]
    out = np.einsum("fk,nkl->nfl", w, cols) + conv.params["b"][None, :, None]
    return (out, np.einsum("nfl,nkl->fk", grad, cols),
            np.einsum("fk,nfl->nkl", w, grad))


def assert_relative(actual, expected, rtol=1e-12):
    scale = max(float(np.abs(expected).max()), 1e-300)
    assert float(np.abs(actual - expected).max()) <= rtol * scale


class TestConv1dFloatContract:
    """BLAS ``Conv1d`` reorders float sums against the einsum it
    replaced; the contract is agreement within 1e-12 relative (and
    byte-identical training at a fixed BLAS thread count, below)."""

    @pytest.mark.parametrize("kernel", [1, 3, 7])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_einsum_reference(self, kernel, stride):
        rng = np.random.default_rng(kernel * 10 + stride)
        conv = Conv1d(3, 5, kernel=kernel, stride=stride, rng=rng)
        # a full batch, then a partial last batch reusing the layer's
        # scratch buffers at a new shape; odd lengths throughout
        for batch, length in ((8, 33), (3, 33), (8, 257)):
            x = rng.normal(size=(batch, 3, length))
            out = conv.forward(x)
            grad = rng.normal(size=out.shape)
            grad_x = conv.backward(grad)
            want_out, want_w, want_cols = einsum_conv(conv, x, grad)
            assert_relative(out, want_out)
            assert_relative(conv.grads["w"], want_w)
            assert_relative(conv.grads["b"], grad.sum(axis=(0, 2)))
            assert_relative(grad_x, _col2im(want_cols, x.shape, kernel,
                                            stride, conv.pad))

    def test_training_is_byte_deterministic_at_one_thread(self):
        script = (
            "import pickle, sys\n"
            "from repro.side import SnoopDataset, evaluate_classifier\n"
            "data = SnoopDataset.generate(per_class=4, seed=1)\n"
            "runs = [pickle.dumps(evaluate_classifier(data, epochs=2, "
            "seed=1)) for _ in range(2)]\n"
            "sys.exit(0 if runs[0] == runs[1] else 1)\n"
        )
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
            env[name] = "1"
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr


class TestBatchNorm1d:
    def test_normalizes_in_training(self):
        bn = BatchNorm1d(3)
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, (16, 3, 20))
        out = bn.forward(x)
        assert abs(out.mean()) < 1e-7
        assert out.std() == pytest.approx(1.0, abs=1e-2)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm1d(2)
        rng = np.random.default_rng(1)
        for _ in range(50):
            bn.forward(rng.normal(2.0, 1.5, (8, 2, 10)))
        bn.eval()
        x = rng.normal(2.0, 1.5, (8, 2, 10))
        out = bn.forward(x)
        assert abs(out.mean()) < 0.2

    def test_gradients(self):
        rng = np.random.default_rng(2)
        bn = BatchNorm1d(2)
        x = rng.normal(size=(3, 2, 5))
        check_layer_gradients(bn, x, rtol=1e-3, atol=1e-5)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BatchNorm1d(2).forward(np.zeros((1, 3, 4)))


def reference_batchnorm(bn, x, grad, training):
    """The textbook BatchNorm formulas (``x.mean``/``x.var``, ``g = γ·grad``)
    on the layer's parameters and running statistics before the step;
    returns ``(out, grad_x, grad_gamma, grad_beta, running_mean,
    running_var)``."""
    gamma = bn.params["gamma"][None, :, None]
    beta = bn.params["beta"][None, :, None]
    running_mean, running_var = bn.running_mean, bn.running_var
    if training:
        mean, var = x.mean(axis=(0, 2)), x.var(axis=(0, 2))
        running_mean = bn.momentum * running_mean + (1 - bn.momentum) * mean
        running_var = bn.momentum * running_var + (1 - bn.momentum) * var
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + bn.eps)
    x_hat = (x - mean[None, :, None]) * inv_std[None, :, None]
    out = gamma * x_hat + beta
    g = grad * gamma
    if training:
        n_eff = x.shape[0] * x.shape[2]
        sum_g = g.sum(axis=(0, 2), keepdims=True)
        sum_gx = (g * x_hat).sum(axis=(0, 2), keepdims=True)
        grad_x = (inv_std[None, :, None] / n_eff) * (
            n_eff * g - sum_g - x_hat * sum_gx)
    else:
        grad_x = g * inv_std[None, :, None]
    return (out, grad_x, (grad * x_hat).sum(axis=(0, 2)),
            grad.sum(axis=(0, 2)), running_mean, running_var)


class TestBatchNormReLUFloatContract:
    """BatchNorm1d sums per axis and with ``einsum`` instead of the
    textbook formulas; like Conv1d it must agree within 1e-12 relative
    (training stays byte-deterministic at one BLAS thread:
    ``test_training_is_byte_deterministic_at_one_thread`` runs it)."""

    def test_batchnorm_matches_the_textbook_formulas(self):
        rng = np.random.default_rng(5)
        bn = BatchNorm1d(4)
        bn.params["gamma"] = rng.normal(1.0, 0.3, 4)
        bn.params["beta"] = rng.normal(0.0, 0.3, 4)
        # full batches, then a partial last batch; train, then eval
        for training, batch in ((True, 8), (True, 3), (False, 8),
                                (False, 3)):
            bn.training = training
            x = rng.normal(2.0, 1.5, (batch, 4, 33))
            grad = rng.normal(size=x.shape)
            x_before, grad_before = x.copy(), grad.copy()
            want = reference_batchnorm(bn, x, grad, training)
            out = bn.forward(x)
            grad_x = bn.backward(grad)
            got = (out, grad_x, bn.grads["gamma"], bn.grads["beta"],
                   bn.running_mean, bn.running_var)
            for actual, expected in zip(got, want):
                assert_relative(actual, expected)
            # neither pass writes into its input (a residual block
            # hands one gradient to two branches)
            assert np.array_equal(x, x_before)
            assert np.array_equal(grad, grad_before)

    def test_relu_matches_where_and_keeps_its_input(self):
        rng = np.random.default_rng(6)
        relu = ReLU()
        x = rng.normal(size=(5, 3, 17))
        x_before = x.copy()
        grad = rng.normal(size=x.shape)
        assert np.array_equal(relu.forward(x), np.where(x > 0, x, 0.0))
        assert np.array_equal(relu.backward(grad), grad * (x > 0))
        assert np.array_equal(x, x_before)


class TestDenseAndOthers:
    def test_dense_gradients(self):
        rng = np.random.default_rng(3)
        dense = Dense(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        check_layer_gradients(dense, x)

    def test_relu(self):
        relu = ReLU()
        x = np.array([[-1.0, 2.0, -3.0, 4.0]])
        np.testing.assert_allclose(relu.forward(x), [[0, 2, 0, 4]])
        np.testing.assert_allclose(relu.backward(np.ones_like(x)),
                                   [[0, 1, 0, 1]])

    def test_global_avg_pool(self):
        pool = GlobalAvgPool1d()
        x = np.arange(12, dtype=float).reshape(1, 2, 6)
        out = pool.forward(x)
        np.testing.assert_allclose(out, [[2.5, 8.5]])
        grad = pool.backward(np.ones((1, 2)))
        np.testing.assert_allclose(grad, np.full((1, 2, 6), 1 / 6))

    def test_flatten_roundtrip(self):
        flat = Flatten()
        x = np.arange(24, dtype=float).reshape(2, 3, 4)
        out = flat.forward(x)
        assert out.shape == (2, 12)
        assert flat.backward(out).shape == (2, 3, 4)

    def test_sequential_composes(self):
        rng = np.random.default_rng(4)
        model = Sequential(Dense(4, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng))
        x = rng.normal(size=(3, 4))
        out = model.forward(x)
        assert out.shape == (3, 2)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape
        assert len(model.parameters()) == 4


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        loss, _ = cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-6

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 2])
        _, grad = cross_entropy(logits, labels)

        def loss_fn():
            return cross_entropy(logits, labels)[0]

        numeric = numerical_gradient(loss_fn, logits)
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-7)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3, 1)), np.array([0, 1]))
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([0]))
