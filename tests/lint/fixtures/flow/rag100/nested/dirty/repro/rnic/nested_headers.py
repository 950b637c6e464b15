"""Fixture: RAG100 — process-global RNG in code a function runs when
it defines a nested function or class: a default value, a decorator
argument and a class body."""

import functools
import random


def make_probe():
    def probe(delay=random.random()):
        return delay
    return probe


def make_cached():
    @functools.lru_cache(maxsize=random.randint(1, 8))
    def cached(key):
        return key
    return cached


def make_config():
    class Config:
        jitter = random.random()
    return Config
