"""Tests for experiment isolation in the CLI runner.

A crashing experiment must not abort the batch: its traceback is
captured to ``<out>/<name>.error.txt``, the remaining experiments
still run, and the exit status plus a summary report the failures.
"""

import pytest

from repro.experiments.__main__ import REGISTRY, main
from repro.experiments.result import ExperimentResult


def ok_result(name="ok"):
    return ExperimentResult(experiment=name, title="fine",
                            rows=[{"value": 1}])


@pytest.fixture
def registry(monkeypatch):
    """Replace the registry with controllable runners."""

    def install(runners):
        monkeypatch.setattr("repro.experiments.__main__.REGISTRY", runners)

    return install


class TestCrashIsolation:
    def test_crash_does_not_abort_the_batch(self, registry, tmp_path,
                                            capsys):
        ran = []

        def boom(seed=0):
            raise RuntimeError("injected crash")

        def fine(seed=0):
            ran.append(seed)
            return ok_result()

        registry({"boom": boom, "fine": fine})
        exit_code = main(["--all", "--out", str(tmp_path)])
        assert exit_code == 1
        assert ran, "the healthy experiment never ran"
        captured = capsys.readouterr()
        assert "injected crash" in captured.err
        assert "1 of 2 experiments failed" in captured.err
        assert "fine" in captured.out  # its table still printed

    def test_traceback_written_next_to_results(self, registry, tmp_path,
                                               capsys):
        def boom(seed=0):
            raise ValueError("look for me")

        registry({"boom": boom})
        assert main(["boom", "--out", str(tmp_path)]) == 1
        error_file = tmp_path / "boom.error.txt"
        assert error_file.exists()
        text = error_file.read_text()
        assert "look for me" in text
        assert "Traceback" in text

    def test_all_green_exits_zero(self, registry, tmp_path, capsys):
        registry({"fine": lambda seed=0: ok_result()})
        assert main(["--all", "--out", str(tmp_path)]) == 0
        assert not list(tmp_path.glob("*.error.txt"))


class TestSignatureDispatch:
    def test_seedless_runner_supported(self, registry, tmp_path, capsys):
        def no_seed():
            return ok_result()

        registry({"noseed": no_seed})
        assert main(["noseed", "--out", str(tmp_path)]) == 0

    def test_smoke_only_passed_when_accepted(self, registry, tmp_path,
                                             capsys):
        seen = {}

        def with_smoke(seed=0, smoke=False):
            seen["smoke"] = smoke
            return ok_result()

        def without_smoke(seed=0):
            return ok_result()

        registry({"a": with_smoke, "b": without_smoke})
        assert main(["--all", "--smoke", "--out", str(tmp_path)]) == 0
        assert seen["smoke"] is True

    def test_faults_experiment_is_registered(self):
        assert "faults" in REGISTRY
