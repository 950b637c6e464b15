"""1-D residual networks (the Figure 13 classifier family)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.layers import (
    BatchNorm1d,
    Conv1d,
    Dense,
    Flatten,
    GlobalAvgPool1d,
    Layer,
    ReLU,
    Sequential,
)


class ResidualBlock1d(Layer):
    """conv-BN-ReLU-conv-BN + identity (or 1x1 projection) shortcut."""

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)  # ragnar-lint: disable=RAG101 — standalone construction only; ResNet1d passes its seeded rng
        self.body = Sequential(
            Conv1d(in_channels, out_channels, kernel=3, stride=stride, rng=rng),
            BatchNorm1d(out_channels),
            ReLU(),
            Conv1d(out_channels, out_channels, kernel=3, rng=rng),
            BatchNorm1d(out_channels),
        )
        if stride != 1 or in_channels != out_channels:
            self.shortcut: Optional[Sequential] = Sequential(
                Conv1d(in_channels, out_channels, kernel=1, stride=stride,
                       pad=0, rng=rng),
                BatchNorm1d(out_channels),
            )
        else:
            self.shortcut = None
        self.relu = ReLU()

    def forward(self, x: np.ndarray) -> np.ndarray:
        main = self.body.forward(x)
        skip = self.shortcut.forward(x) if self.shortcut is not None else x
        return self.relu.forward(main + skip)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = self.relu.backward(grad)
        grad_main = self.body.backward(grad)
        grad_skip = (
            self.shortcut.backward(grad) if self.shortcut is not None else grad
        )
        return grad_main + grad_skip

    def train(self) -> None:
        super().train()
        self.body.train()
        if self.shortcut is not None:
            self.shortcut.train()

    def eval(self) -> None:
        super().eval()
        self.body.eval()
        if self.shortcut is not None:
            self.shortcut.eval()

    def parameters(self) -> list[tuple[Layer, str]]:
        out = self.body.parameters()
        if self.shortcut is not None:
            out.extend(self.shortcut.parameters())
        return out


class ResNet1d(Sequential):
    """Stem + residual stages + classifier head.

    A compact relative of ResNet18 sized for 257-sample traces: the
    paper's 17-way address classification does not need ImageNet-scale
    capacity, and NumPy training time matters offline.

    The default head flattens the final feature map instead of global
    average pooling: the snooping task is *positional* (the class IS
    the location of the contention bump), and GAP discards position —
    a deep ResNet18 recovers it through padding artifacts, but a
    compact network should keep it explicitly (``head="gap"`` restores
    the classic head for ablation).

    The network is float32 end to end, as PyTorch trains the paper's
    ResNet18: parameters, BatchNorm running statistics, activations,
    gradients, Adam moments and scratch buffers.  The He init is drawn
    in float64 from the seeded stream and rounded once; :meth:`forward`
    casts its input, so float64 traces need no conversion.
    """

    def __init__(self, in_channels: int, num_classes: int,
                 input_length: int = 257,
                 stage_channels: tuple[int, ...] = (16, 32, 64),
                 blocks_per_stage: int = 2,
                 head: str = "flatten",
                 seed: int = 0) -> None:
        if head not in ("flatten", "gap"):
            raise ValueError(f"unknown head {head!r}")
        rng = np.random.default_rng(seed)
        layers: list[Layer] = [
            Conv1d(in_channels, stage_channels[0], kernel=7, stride=2, rng=rng),
            BatchNorm1d(stage_channels[0]),
            ReLU(),
        ]
        current = stage_channels[0]
        for stage_index, channels in enumerate(stage_channels):
            for block_index in range(blocks_per_stage):
                stride = 2 if (stage_index > 0 and block_index == 0) else 1
                layers.append(
                    ResidualBlock1d(current, channels, stride=stride, rng=rng)
                )
                current = channels
        if head == "gap":
            layers.append(GlobalAvgPool1d())
            features = current
        else:
            # probe the feature-map length with a dummy pass
            probe = np.zeros((1, in_channels, input_length))
            body = Sequential(*layers)
            body.eval()
            final_length = body.forward(probe).shape[2]
            body.train()
            layers.append(Flatten())
            features = current * final_length
        layers.append(Dense(features, num_classes, rng=rng))
        super().__init__(*layers)
        # one precision for the whole network (class docstring)
        for owner in dict.fromkeys(owner for owner, _ in self.parameters()):
            for name, value in owner.params.items():
                owner.params[name] = value.astype(np.float32)
            if isinstance(owner, BatchNorm1d):
                owner.running_mean = owner.running_mean.astype(np.float32)
                owner.running_var = owner.running_var.astype(np.float32)
        self.num_classes = num_classes
        self.input_length = input_length
        self.head = head

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Logits for ``x``, cast to the network's float32 first."""
        return super().forward(x.astype(np.float32, copy=False))

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class predictions in eval mode."""
        self.eval()
        out = []
        for start in range(0, len(x), batch_size):
            logits = self.forward(x[start : start + batch_size])
            out.append(np.argmax(logits, axis=1))
        return np.concatenate(out) if out else np.empty(0, dtype=int)


def build_resnet1d(num_classes: int, in_channels: int = 1,
                   input_length: int = 257, seed: int = 0) -> ResNet1d:
    """The default Figure 13 classifier configuration."""
    return ResNet1d(in_channels=in_channels, num_classes=num_classes,
                    input_length=input_length,
                    stage_channels=(16, 32, 64), blocks_per_stage=2,
                    seed=seed)
