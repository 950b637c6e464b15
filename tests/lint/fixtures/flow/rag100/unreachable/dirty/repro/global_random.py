"""Fixture: RAG100 — global RNG state in a function nothing calls."""

import random

import numpy as np


def draw() -> float:
    np.random.seed(0)
    jitter = np.random.rand()
    return random.random() + jitter
