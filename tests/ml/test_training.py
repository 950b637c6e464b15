"""End-to-end training tests for the NumPy network stack."""

import numpy as np
import pytest

from repro.ml import (
    Adam,
    ResNet1d,
    Trainer,
    accuracy,
    build_resnet1d,
    confusion_matrix,
    train_test_split,
)
from repro.ml.layers import BatchNorm1d, Conv1d, Dense, ReLU, Sequential
from repro.ml.resnet import ResidualBlock1d
from repro.ml.train import cross_entropy


def synthetic_traces(n_per_class, num_classes, length=64, seed=0):
    """Toy version of the snoop traces: one bump per class position."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for cls in range(num_classes):
        center = int((cls + 0.5) * length / num_classes)
        for _ in range(n_per_class):
            trace = rng.normal(0, 0.35, length)
            trace[max(center - 2, 0) : center + 3] += 1.5
            xs.append(trace)
            ys.append(cls)
    x = np.asarray(xs)[:, None, :]  # (N, 1, L)
    y = np.asarray(ys)
    return x, y


class TestResidualBlock:
    def test_identity_shortcut_shapes(self):
        block = ResidualBlock1d(8, 8)
        x = np.random.default_rng(0).normal(size=(2, 8, 16))
        out = block.forward(x)
        assert out.shape == x.shape
        assert block.backward(np.ones_like(out)).shape == x.shape
        assert block.shortcut is None

    def test_projection_shortcut_on_channel_change(self):
        block = ResidualBlock1d(4, 8, stride=2)
        assert block.shortcut is not None
        x = np.random.default_rng(0).normal(size=(2, 4, 16))
        assert block.forward(x).shape == (2, 8, 8)


class TestResNet:
    def test_forward_shape(self):
        model = build_resnet1d(num_classes=17, input_length=257)
        x = np.random.default_rng(0).normal(size=(4, 1, 257))
        assert model.forward(x).shape == (4, 17)

    def test_predict_batches(self):
        model = build_resnet1d(num_classes=5, input_length=64)
        x = np.random.default_rng(0).normal(size=(10, 1, 64))
        preds = model.predict(x, batch_size=3)
        assert preds.shape == (10,)
        assert set(preds) <= set(range(5))

    def test_learns_separable_classes(self):
        """The full stack must actually learn: a small ResNet on the toy
        bump dataset reaches high test accuracy within a few epochs."""
        x, y = synthetic_traces(40, 4, length=64)
        x_train, y_train, x_test, y_test = train_test_split(x, y, 0.25, seed=1)
        model = ResNet1d(in_channels=1, num_classes=4, input_length=64,
                         stage_channels=(8, 16), blocks_per_stage=1, seed=0)
        trainer = Trainer(model, Adam(model, lr=3e-3), batch_size=32)
        trainer.fit(x_train, y_train, epochs=6)
        acc = accuracy(model.predict(x_test), y_test)
        assert acc > 0.9, f"test accuracy only {acc:.2f}"

    def test_loss_decreases(self):
        x, y = synthetic_traces(20, 3, length=32)
        model = ResNet1d(in_channels=1, num_classes=3, input_length=32,
                         stage_channels=(8,), blocks_per_stage=1, seed=0)
        trainer = Trainer(model, Adam(model, lr=1e-3), batch_size=16)
        history = trainer.fit(x, y, epochs=5)
        assert history[-1].loss < history[0].loss


def leaf_layers(layer):
    if isinstance(layer, Sequential):
        for sub in layer.layers:
            yield from leaf_layers(sub)
    elif isinstance(layer, ResidualBlock1d):
        yield from leaf_layers(layer.body)
        if layer.shortcut is not None:
            yield from leaf_layers(layer.shortcut)
        yield layer.relu
    else:
        yield layer


class TestFloat32Contract:
    """The Figure 13 classifier trains in float32 end to end; a silent
    upcast anywhere would keep the accuracies and lose the speed."""

    def test_fit_step_stays_float32(self):
        # evaluate_classifier's configuration, fed float64 traces as
        # SnoopDataset gives them; a full batch, then a partial one
        model = ResNet1d(in_channels=1, num_classes=17, input_length=257,
                         stage_channels=(16, 32), blocks_per_stage=1, seed=0)
        optimizer = Adam(model)
        leaves = list(leaf_layers(model))
        seen = []

        def recording(method):
            def call(array):
                out = method(array)
                seen.append((type(method.__self__).__name__,
                             method.__name__, out.dtype))
                return out
            return call

        for layer in leaves:
            layer.forward = recording(layer.forward)
            layer.backward = recording(layer.backward)
        rng = np.random.default_rng(0)
        for batch in (64, 20):
            x = rng.normal(size=(batch, 1, 257))
            logits = model.forward(x)
            _, grad = cross_entropy(logits, rng.integers(0, 17, batch))
            grad_x = model.backward(grad)
            optimizer.step()
            assert logits.dtype == grad.dtype == grad_x.dtype == np.float32
        assert len(seen) == 2 * 2 * len(leaves)
        assert {dtype for *_, dtype in seen} == {np.dtype(np.float32)}, seen
        arrays = [owner.params[name] for owner, name in model.parameters()]
        arrays += [owner.grads[name] for owner, name in model.parameters()]
        arrays += optimizer._m + optimizer._v
        for layer in leaves:
            if isinstance(layer, Conv1d):
                arrays += [layer._cols, layer._grad_x]
            if isinstance(layer, BatchNorm1d):
                arrays += [layer.running_mean, layer.running_var]
        assert {array.dtype for array in arrays} == {np.dtype(np.float32)}
        # inference reads the running statistics instead
        model.eval()
        assert model.forward(x).dtype == np.float32


class TestMLPTraining:
    def test_dense_network_learns_xor(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, (400, 2)).astype(float)
        y = (x[:, 0].astype(int) ^ x[:, 1].astype(int))
        x += rng.normal(0, 0.05, x.shape)
        model = Sequential(Dense(2, 16, rng=rng), ReLU(), Dense(16, 2, rng=rng))
        trainer = Trainer(model, Adam(model, lr=1e-2), batch_size=32)
        trainer.fit(x, y, epochs=30)
        logits = model.forward(x)
        assert accuracy(np.argmax(logits, axis=1), y) > 0.95


class TestSplitsAndMetrics:
    def test_split_sizes(self):
        x = np.arange(100).reshape(100, 1)
        y = np.arange(100)
        x_tr, y_tr, x_te, y_te = train_test_split(x, y, 0.2, seed=3)
        assert len(x_tr) == 80 and len(x_te) == 20
        assert set(y_tr) | set(y_te) == set(range(100))
        assert set(y_tr) & set(y_te) == set()

    def test_split_validation(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((4, 1)), np.zeros(4), 1.5)
        with pytest.raises(ValueError):
            train_test_split(np.zeros((4, 1)), np.zeros(3), 0.5)

    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(2 / 3)
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_confusion_matrix(self):
        preds = np.array([0, 1, 1, 2])
        labels = np.array([0, 1, 2, 2])
        matrix = confusion_matrix(preds, labels, 3)
        assert matrix[0, 0] == 1
        assert matrix[1, 1] == 1
        assert matrix[2, 1] == 1
        assert matrix[2, 2] == 1
        assert matrix.sum() == 4

    def test_confusion_matrix_validation(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([5]), np.array([0]), 3)

    def test_adam_validation(self):
        model = Sequential(Dense(2, 2))
        with pytest.raises(ValueError):
            Adam(model, lr=0.0)

    def test_trainer_validation(self):
        model = Sequential(Dense(2, 2))
        with pytest.raises(ValueError):
            Trainer(model, Adam(model), batch_size=0)
        trainer = Trainer(model, Adam(model))
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((2, 2)), np.zeros(2, dtype=int), epochs=0)
