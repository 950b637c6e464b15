"""Clean twin: the nested headers and class body draw from the
Generator the caller seeds."""

import functools


def make_probe(rng):
    def probe(delay=rng.random()):
        return delay
    return probe


def make_cached(rng):
    @functools.lru_cache(maxsize=int(rng.integers(1, 8)))
    def cached(key):
        return key
    return cached


def make_config(rng):
    class Config:
        jitter = rng.random()
    return Config
