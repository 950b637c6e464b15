"""Failure reporting in the experiment CLI.

Covers ``_invoke`` signature-dispatch edge cases and a ``--jobs`` batch
whose worker dies without a Python exception.
"""

import os
import time

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


def _slow(seed=0):
    # still running when its neighbour's process dies
    time.sleep(2)
    return ok_result("slow")


class TestDeadWorker:
    def test_dead_worker_is_reported_not_fatal(self, registry, tmp_path,
                                               capsys):
        # module-level runners, so the spawn processes can unpickle them
        registry({"good": _succeed, "boom": _raise, "dead": _die})
        assert main(["--all", "--jobs", "2",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "raised in a worker" in \
            (tmp_path / "boom.error.txt").read_text()
        dead_error = (tmp_path / "dead.error.txt").read_text()
        assert dead_error == ("the process running dead exited with code 1 "
                              "without reporting an outcome\n")
        assert f"[dead: FAILED -> {tmp_path / 'dead.error.txt'}]" in err
        assert "2 of 3 experiments failed (1 completed): boom, dead" in err
        assert (tmp_path / "good.txt").exists()

        # a good experiment running beside the dying one completes: each
        # experiment has a process of its own, and only its own death
        # fails it
        registry({"dead": _die, "good": _slow})
        both = tmp_path / "both"
        assert main(["--all", "--jobs", "2", "--out", str(both)]) == 1
        assert "1 of 2 experiments failed (1 completed): dead" in \
            capsys.readouterr().err
        assert (both / "slow.txt").exists()
        assert not (both / "good.error.txt").exists()

    def test_dying_last_submission_fails_alone(self, registry, tmp_path,
                                               capsys):
        # the dying experiment is submitted after slower ones, so it
        # runs on a process started while the others are still running
        registry({"slow": _slow, "good": _succeed, "dead": _die})
        assert main(["--all", "--jobs", "2",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "1 of 3 experiments failed (2 completed): dead" in err
        assert "exited with code 1" in \
            (tmp_path / "dead.error.txt").read_text()
        for name in ("slow", "good"):
            assert (tmp_path / f"{name}.txt").exists()
