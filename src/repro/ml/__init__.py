"""A from-scratch NumPy deep-learning stack for the Figure 13 classifier.

The paper trains a ResNet18 on 6720 traces of 257 ULI samples to do
17-way classification of the victim's access address (95.6 % test
accuracy); ``--full`` trains on 6,715 (17 classes × 395, the nearest
balanced count, since 6,720 is not a multiple of 17).  Offline
reproduction cannot use PyTorch, so this package implements the needed
pieces directly on NumPy:

* :mod:`layers` — Conv1d (im2col), BatchNorm1d, ReLU, Dense, pooling,
  each with explicit forward/backward;
* :mod:`resnet` — residual blocks and a configurable 1-D ResNet;
* :mod:`train` — Adam, cross-entropy, minibatch trainer, splits;
* :mod:`metrics` — accuracy and confusion matrices.
"""

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
from repro.ml.resnet import ResidualBlock1d, ResNet1d, build_resnet1d
from repro.ml.train import Adam, Trainer, cross_entropy, train_test_split
from repro.ml.metrics import accuracy, confusion_matrix

__all__ = [
    "Layer",
    "Conv1d",
    "BatchNorm1d",
    "ReLU",
    "Dense",
    "Flatten",
    "GlobalAvgPool1d",
    "Sequential",
    "ResidualBlock1d",
    "ResNet1d",
    "build_resnet1d",
    "Adam",
    "Trainer",
    "cross_entropy",
    "train_test_split",
    "accuracy",
    "confusion_matrix",
]
