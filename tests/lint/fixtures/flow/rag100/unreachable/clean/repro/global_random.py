"""Clean twin: draws come from a Generator the caller seeds."""

import numpy as np


def draw(rng: np.random.Generator) -> float:
    jitter = rng.random()
    return rng.random() + jitter
