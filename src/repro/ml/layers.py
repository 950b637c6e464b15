"""Neural-network layers with explicit forward/backward passes.

Conventions: activations are ``(batch, channels, length)`` for
convolutional layers and ``(batch, features)`` for dense layers.  Each
layer stores its parameters in ``params`` and accumulates gradients of
the same shapes in ``grads`` during :meth:`backward`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class Layer:
    """Base class: stateless layers only override forward/backward."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.training = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer's output, caching what backward needs."""
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads; return dLoss/dInput."""
        raise NotImplementedError

    def train(self) -> None:
        """Switch to training mode (batch statistics, caching)."""
        self.training = True

    def eval(self) -> None:
        """Switch to inference mode (running statistics)."""
        self.training = False

    def parameters(self) -> list[tuple["Layer", str]]:
        """(owner, name) handles for every trainable array."""
        return [(self, name) for name in self.params]


def _scratch(buf: Optional[np.ndarray], shape: tuple,
             dtype: np.dtype) -> np.ndarray:
    """``buf`` when its shape and dtype both still match, else a new
    uninitialized array.  Checking the dtype too keeps a float32 batch
    from being written into a float64 buffer (and the reverse, which
    would round float64 values to float32)."""
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        return np.empty(shape, dtype)
    return buf


def _taps(length: int, kernel: int, stride: int, pad: int,
          l_out: int) -> list[tuple[int, int, int, slice]]:
    """``(k, lo, hi, source)`` per kernel position: output positions
    ``lo:hi`` read the input positions ``source``; the others fall in
    the zero padding (output ``j`` reads input ``k + j*stride - pad``)."""
    taps = []
    for k in range(kernel):
        lo = min(l_out, max(0, -((k - pad) // stride)))
        hi = max(lo, min(l_out, (length - 1 + pad - k) // stride + 1))
        start = k + lo * stride - pad
        taps.append((k, lo, hi,
                     slice(start, start + (hi - lo) * stride, stride)))
    return taps


def _im2col(x: np.ndarray, kernel: int, stride: int, pad: int,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """(N, C, L) -> (N, C*K, L_out) patch matrix in ``x``'s dtype.

    One strided-slice copy per kernel position (K is tiny) instead of a
    fancy-indexed (N, C, L_out, K) temporary plus a transpose copy; the
    padding is written as zero margins rather than a padded copy of
    ``x``.  ``out`` is reused when its shape and dtype still match —
    the training loop calls this every step with a fixed batch shape.
    """
    n, c, length = x.shape
    l_out = (length + 2 * pad - kernel) // stride + 1
    out = _scratch(out, (n, c * kernel, l_out), x.dtype)
    view = out.reshape(n, c, kernel, l_out)
    for k, lo, hi, source in _taps(length, kernel, stride, pad, l_out):
        view[:, :, k, :lo] = 0.0
        view[:, :, k, hi:] = 0.0
        view[:, :, k, lo:hi] = x[:, :, source]
    return out


def _col2im(cols: np.ndarray, x_shape: tuple, kernel: int, stride: int,
            pad: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Adjoint of :func:`_im2col` — scatter-add via one strided-slice
    ``+=`` per kernel position, skipping the taps that land in the
    padding.  ``out`` (shape ``x_shape``) is reused when its dtype
    matches ``cols``'."""
    n, c, length = x_shape
    l_out = (length + 2 * pad - kernel) // stride + 1
    patches = cols.reshape(n, c, kernel, l_out)
    out = _scratch(out, (n, c, length), cols.dtype)
    out.fill(0.0)
    for k, lo, hi, source in _taps(length, kernel, stride, pad, l_out):
        out[:, :, source] += patches[:, :, k, lo:hi]
    return out


class Conv1d(Layer):
    """1-D convolution via im2col + matmul."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, pad: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if kernel <= 0 or stride <= 0:
            raise ValueError("kernel and stride must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad if pad is not None else kernel // 2
        rng = rng if rng is not None else np.random.default_rng(0)  # ragnar-lint: disable=RAG101 — standalone construction only; ResNet1d and its blocks pass the network's seeded rng
        scale = np.sqrt(2.0 / (in_channels * kernel))  # He init
        self.params["w"] = rng.normal(0.0, scale,
                                      (out_channels, in_channels * kernel))
        self.params["b"] = np.zeros(out_channels)
        self._cache: Optional[tuple] = None
        # step-to-step scratch buffers; _im2col/_col2im reallocate them
        # only when the batch shape (e.g. the last partial batch) or the
        # dtype changes
        self._cols: Optional[np.ndarray] = None
        self._grad_x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected (N, {self.in_channels}, L), got {x.shape}"
            )
        cols = self._cols = _im2col(x, self.kernel, self.stride, self.pad,
                                    out=self._cols)
        # (F, CK) @ (N, CK, L_out): one BLAS GEMM per sample
        out = self.params["w"] @ cols
        out += self.params["b"][None, :, None]
        self._cache = (x.shape, cols)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_shape, cols = self._cache
        self.grads["b"] = grad.sum(axis=(0, 2))
        # per-sample GEMMs over L_out summed over N: measured faster than
        # one (N*L_out) GEMM, whose operands need transposing copies
        self.grads["w"] = (grad @ cols.transpose(0, 2, 1)).sum(axis=0)
        grad_cols = self.params["w"].T @ grad
        self._grad_x = _scratch(self._grad_x, x_shape, grad_cols.dtype)
        return _col2im(grad_cols, x_shape, self.kernel, self.stride, self.pad,
                       out=self._grad_x)


class BatchNorm1d(Layer):
    """Per-channel batch normalization over (N, L).

    The per-channel reductions sum the contiguous length axis first
    (then the batch) and take ``x̂``-weighted sums with ``einsum``, which
    reorders float sums against ``x.mean``/``x.var`` — the Conv1d float
    contract of docs/PERF.md covers it.  Neither pass writes into its
    input: :class:`~repro.ml.resnet.ResidualBlock1d` hands one gradient
    to two branches.
    """

    def __init__(self, channels: int, momentum: float = 0.9,
                 eps: float = 1e-5) -> None:
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.params["gamma"] = np.ones(channels)
        self.params["beta"] = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {x.shape}")
        n_eff = x.shape[0] * x.shape[2]
        if self.training:
            mean = x.sum(axis=2).sum(axis=0) / n_eff
            x_hat = x - mean[None, :, None]
            var = np.einsum("ncl,ncl->c", x_hat, x_hat) / n_eff
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            x_hat = x - self.running_mean[None, :, None]
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std[None, :, None]
        self._cache = (x_hat, inv_std, n_eff)
        out = x_hat * self.params["gamma"][None, :, None]
        out += self.params["beta"][None, :, None]
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_hat, inv_std, n_eff = self._cache
        sum_g = grad.sum(axis=2).sum(axis=0)
        sum_gx = np.einsum("ncl,ncl->c", grad, x_hat)
        self.grads["gamma"] = sum_gx
        self.grads["beta"] = sum_g
        scale = (self.params["gamma"] * inv_std)[None, :, None]
        if not self.training:
            return grad * scale
        # gamma * inv_std * (grad - sum_g / n - x_hat * sum_gx / n)
        out = x_hat * (sum_gx / n_eff)[None, :, None]
        out += (sum_g / n_eff)[None, :, None]
        np.subtract(grad, out, out=out)
        out *= scale
        return out


class ReLU(Layer):
    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask


class Dense(Layer):
    """Fully connected layer on (N, features)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)  # ragnar-lint: disable=RAG101 — standalone construction only; ResNet1d and its blocks pass the network's seeded rng
        scale = np.sqrt(2.0 / in_features)
        self.params["w"] = rng.normal(0.0, scale, (in_features, out_features))
        self.params["b"] = np.zeros(out_features)
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.params["w"] + self.params["b"]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.grads["w"] = self._x.T @ grad
        self.grads["b"] = grad.sum(axis=0)
        return grad @ self.params["w"].T


class GlobalAvgPool1d(Layer):
    """(N, C, L) -> (N, C)."""

    def __init__(self) -> None:
        super().__init__()
        self._length = 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._length = x.shape[2]
        return x.mean(axis=2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return np.repeat(grad[:, :, None], self._length, axis=2) / self._length


class Flatten(Layer):
    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._shape)


class Sequential(Layer):
    """A layer pipeline."""

    def __init__(self, *layers: Layer) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def train(self) -> None:
        super().train()
        for layer in self.layers:
            layer.train()

    def eval(self) -> None:
        super().eval()
        for layer in self.layers:
            layer.eval()

    def parameters(self) -> list[tuple[Layer, str]]:
        out = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out
