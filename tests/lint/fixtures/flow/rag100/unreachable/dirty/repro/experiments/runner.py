"""Fixture: a process-global RNG call in a helper no entry point
reaches; RAG100 reports it anyway, with no call chain."""
import random


def run_task(name):
    return name


def _unused_jitter():
    return random.random()
