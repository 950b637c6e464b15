"""Serial vs ``--jobs N`` equivalence of the post-batch fleet pass.

The fleet artifacts (``fleet_metrics.json``, ``fleet_snapshots.jsonl``,
``slo_report.json``) are built once, after the batch, from the committed
per-task metrics in sorted task order — so a serial run, a ``--jobs``
run, a rerun and a ``--resume`` run must agree byte-for-byte.  The
faults experiment's injected retransmits/RNR-NAKs are the
demonstrably-firing burn-rate alert the SLO acceptance demands.
"""

import json
import pathlib

from repro.experiments.__main__ import REGISTRY, main
from repro.obs.__main__ import main as obs_main

SPEC = str(pathlib.Path(__file__).resolve().parents[2]
           / "examples" / "slo_spec.json")
EXPERIMENTS = ["table5", "faults", "--smoke"]
FLEET_ARTIFACTS = ("fleet_metrics.json", "fleet_snapshots.jsonl",
                   "slo_report.json")


def _fleet_bytes(path) -> dict:
    return {name: (pathlib.Path(path) / name).read_bytes()
            for name in FLEET_ARTIFACTS}


class TestFleetParallel:
    def test_serial_jobs_and_rerun_byte_identical(self, tmp_path, capsys):
        ser = tmp_path / "serial"
        par = tmp_path / "parallel"
        rerun = tmp_path / "rerun"
        resumed = tmp_path / "resumed"
        # a partial table5-only run, so the resume leg merges one
        # verified-resumed task with one that runs now
        assert main(["table5", "--smoke", "--slo", SPEC,
                     "--out", str(resumed)]) == 0
        capsys.readouterr()
        for out, jobs in ((ser, []), (par, ["--jobs", "2"]),
                          (rerun, ["--jobs", "2"]),
                          (resumed, ["--jobs", "2", "--resume"])):
            assert main([*EXPERIMENTS, *jobs, "--slo", SPEC,
                         "--out", str(out)]) == 0
            capsys.readouterr()
        serial_bytes = _fleet_bytes(ser)
        assert serial_bytes == _fleet_bytes(par)
        assert serial_bytes == _fleet_bytes(rerun)
        assert serial_bytes == _fleet_bytes(resumed)

        report = json.loads(serial_bytes["slo_report.json"])
        assert report["spec"] == "ragnar-fleet"
        # the injected faults burn the wire-error budget: alerts fire
        assert report["alerts"], "expected burn-rate alerts on faults"
        assert report["compliant"] is False
        fired = {alert["objective"] for alert in report["alerts"]}
        assert "wire-errors" in fired

    def test_fleet_metrics_without_slo(self, tmp_path, capsys):
        assert main(["table5", "--smoke", "--fleet-metrics",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        merged = json.loads((tmp_path / "fleet_metrics.json").read_text())
        per_task = json.loads(
            (tmp_path / "table5.metrics.json").read_text())
        # one task: the merge is that task's snapshot verbatim
        assert merged == per_task
        assert (tmp_path / "fleet_snapshots.jsonl").exists()
        assert not (tmp_path / "slo_report.json").exists()

    def test_failed_task_stale_metrics_are_not_merged(self, tmp_path,
                                                      capsys, monkeypatch):
        assert main(["table5", "faults", "--smoke", "--fleet-metrics",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()

        def boom(seed=0, **kwargs):
            raise RuntimeError("injected crash")

        # the serial path reads the patchable module REGISTRY
        monkeypatch.setattr("repro.experiments.__main__.REGISTRY",
                            {**REGISTRY, "faults": boom})
        assert main(["table5", "faults", "--smoke", "--fleet-metrics",
                     "--out", str(tmp_path)]) == 1
        capsys.readouterr()
        # faults.metrics.json is the first run's; only table5 merges
        assert (tmp_path / "faults.metrics.json").exists()
        assert (tmp_path / "fleet_metrics.json").read_bytes() == \
            (tmp_path / "table5.metrics.json").read_bytes()
        lines = (tmp_path / "fleet_snapshots.jsonl").read_text() \
            .splitlines()
        assert [json.loads(line)["task"] for line in lines] == ["table5"]

    def test_nothing_merged_leaves_no_fleet_files(self, tmp_path, capsys,
                                                  monkeypatch):
        assert main(["table5", "--smoke", "--slo", SPEC,
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()

        def boom(seed=0, **kwargs):
            raise RuntimeError("injected crash")

        monkeypatch.setattr("repro.experiments.__main__.REGISTRY",
                            {**REGISTRY, "table5": boom})
        assert main(["table5", "--smoke", "--slo", SPEC,
                     "--out", str(tmp_path)]) == 1
        capsys.readouterr()
        assert (tmp_path / "table5.metrics.json").exists()
        for name in FLEET_ARTIFACTS:
            assert not (tmp_path / name).exists(), name

    def test_obs_slo_reevaluation_matches_run_report(self, tmp_path,
                                                     capsys):
        run = tmp_path / "run"
        assert main([*EXPERIMENTS, "--slo", SPEC, "--out", str(run)]) == 0
        capsys.readouterr()
        out = tmp_path / "reevaluated.json"
        # exit 1: the faults run violates the spec — that IS the signal
        assert obs_main(["slo", str(run), "--spec", SPEC,
                         "--out", str(out)]) == 1
        capsys.readouterr()
        assert out.read_bytes() == (run / "slo_report.json").read_bytes()

    def test_obs_slo_after_failed_rerun_matches_run_report(self, tmp_path,
                                                           capsys,
                                                           monkeypatch):
        assert main([*EXPERIMENTS, "--slo", SPEC,
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()

        def boom(seed=0, **kwargs):
            raise RuntimeError("injected crash")

        monkeypatch.setattr("repro.experiments.__main__.REGISTRY",
                            {**REGISTRY, "faults": boom})
        assert main([*EXPERIMENTS, "--slo", SPEC,
                     "--out", str(tmp_path)]) == 1
        capsys.readouterr()
        # faults.metrics.json is stale from the first run: the
        # re-evaluation must take the rerun's task set, not the glob
        assert (tmp_path / "faults.metrics.json").exists()
        out = tmp_path / "reevaluated.json"
        obs_main(["slo", str(tmp_path), "--spec", SPEC, "--out", str(out)])
        capsys.readouterr()
        assert out.read_bytes() == (tmp_path / "slo_report.json").read_bytes()

    def test_obs_slo_rejects_an_unreadable_task_list(self, tmp_path, capsys):
        (tmp_path / "table5.metrics.json").write_text("{}\n")
        (tmp_path / "fleet_snapshots.jsonl").write_text("not json\n")
        assert obs_main(["slo", str(tmp_path), "--spec", SPEC]) == 2
        assert "fleet_snapshots.jsonl" in capsys.readouterr().err
