"""The vendored ziggurat tables and the replay guard."""

import importlib.util
import inspect
import pathlib
import sys

import pytest

from repro.rnic import _ziggurat, jitter

REPO = pathlib.Path(__file__).resolve().parents[2]


def load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_ziggurat", REPO / "tools" / "gen_ziggurat.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_tables_match_the_installed_numpy():
    generator = load_generator()
    archive = generator.default_archive()
    if not archive.exists():
        pytest.skip(f"{archive} not shipped with this numpy")
    tables = generator.read_tables(archive)
    for name, _ in generator.TABLES:
        assert getattr(_ziggurat, name[:2].upper()) == tables[name], name


def test_guard_passes_on_this_platform():
    """The bulk replay must not switch itself off silently."""
    jitter.replay_exact.cache_clear()
    assert jitter.replay_exact()


def test_guard_takes_every_slow_path():
    """The guard's starts run every branch of both slow paths — tails,
    wedges and their rejection loops — so a platform whose libm or
    float contraction disagrees with numpy's build fails it."""
    hits: dict[tuple[str, int], int] = {}
    watched = {"_normal", "_exponential"}

    def tracer(frame, event, arg):
        if frame.f_code.co_name not in watched:
            return None

        def lines(frame, event, arg):
            if event == "line":
                key = (frame.f_code.co_name, frame.f_lineno)
                hits[key] = hits.get(key, 0) + 1
            return lines
        return lines

    sys.settrace(tracer)
    try:
        assert jitter.replay_exact.__wrapped__()
    finally:
        sys.settrace(None)

    def count(function, text, occurrence=0):
        source, start = inspect.getsourcelines(function)
        found = [start + offset for offset, line in enumerate(source)
                 if line.strip() == text]
        return hits.get((function.__name__, found[occurrence]), 0)

    normal, exponential = jitter._normal, jitter._exponential
    negative = count(normal, "return -(NOR_R + xx), pos")
    positive = count(normal, "return NOR_R + xx, pos")
    assert negative > 0 and positive > 0
    # the tail's acceptance test failed at least once
    assert count(normal, "if yy + yy > xx * xx:") > negative + positive
    wedge = count(normal, "if (FI[idx - 1] - FI[idx]) * u + FI[idx] "
                          "< math.exp(-0.5 * x * x):")
    assert wedge > count(normal, "return x, pos", 1) > 0
    assert count(exponential, "return EXP_R - math.log1p(-u), pos") > 0
    wedge = count(exponential, "if (FE[idx - 1] - FE[idx]) * u + "
                               "FE[idx] < math.exp(-x):")
    assert wedge > count(exponential, "return x, pos", 1) > 0
