"""Failure reporting in the experiment CLI.

Covers ``_invoke`` signature-dispatch edge cases and a ``--jobs`` batch
whose worker dies without a Python exception.
"""

import os

import pytest

from repro.experiments.__main__ import main
from repro.experiments.result import ExperimentResult
from repro.experiments.runner import _invoke


def ok_result(name="ok"):
    return ExperimentResult(experiment=name, title="fine",
                            rows=[{"value": 1}])


@pytest.fixture
def registry(monkeypatch):
    def install(runners):
        monkeypatch.setattr("repro.experiments.__main__.REGISTRY", runners)

    return install


class TestInvokeDispatch:
    def test_var_keyword_runner_gets_seed_and_smoke(self):
        seen = {}

        def runner(**kwargs):
            seen.update(kwargs)
            return "ran"

        assert _invoke(runner, 7, True, {"payload_bits": 64}) == "ran"
        assert seen == {"seed": 7, "smoke": True, "payload_bits": 64}

    def test_var_keyword_runner_without_smoke_flag(self):
        seen = {}

        def runner(**kwargs):
            seen.update(kwargs)

        _invoke(runner, 7, False, {})
        assert seen == {"seed": 7}   # smoke=False is never forwarded

    def test_runner_rejecting_smoke_not_passed_smoke(self):
        seen = {}

        def runner(seed=0):
            seen["seed"] = seed
            return "ran"

        assert _invoke(runner, 3, True, {}) == "ran"
        assert seen == {"seed": 3}

    def test_seedless_runner_supported(self):
        def runner():
            return "bare"

        assert _invoke(runner, 3, False, {}) == "bare"

    def test_full_scale_kwargs_forwarded(self):
        seen = {}

        def runner(seed=0, payload_bits=8):
            seen["payload_bits"] = payload_bits
            return "ran"

        _invoke(runner, 0, False, {"payload_bits": 1024})
        assert seen == {"payload_bits": 1024}


def _succeed(seed=0):
    return ok_result("good")


def _raise(seed=0):
    raise ValueError("raised in a worker")


def _die(seed=0):
    os._exit(1)


class TestDeadWorker:
    def test_dead_worker_is_reported_not_fatal(self, registry, tmp_path,
                                               capsys):
        # module-level runners, so the spawn pool can pickle them; the
        # good one is submitted first, so it has finished before the
        # dying one starts (one fresh worker per task, FIFO queue)
        registry({"good": _succeed, "boom": _raise, "dead": _die})
        assert main(["--all", "--jobs", "2",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "raised in a worker" in \
            (tmp_path / "boom.error.txt").read_text()
        assert "BrokenProcessPool" in \
            (tmp_path / "dead.error.txt").read_text()
        assert f"[dead: FAILED -> {tmp_path / 'dead.error.txt'}]" in err
        assert "2 of 3 experiments failed (1 completed): boom, dead" in err
        assert (tmp_path / "good.txt").exists()
