"""Serial vs ``--jobs N`` equivalence of the post-batch fleet pass.

``fleet_metrics.json`` is built once, after the batch, from the
committed per-task metrics in sorted task order — so a serial run, a
``--jobs`` run and a rerun into a used output directory must agree
byte-for-byte.
"""

import json

from repro.experiments.__main__ import REGISTRY, main

EXPERIMENTS = ["table5", "faults", "--smoke", "--fleet-metrics"]


def _boom(seed=0, **kwargs):
    raise RuntimeError("injected crash")


class TestFleetParallel:
    def test_serial_jobs_and_rerun_byte_identical(self, tmp_path, capsys):
        ser = tmp_path / "serial"
        par = tmp_path / "parallel"
        rerun = tmp_path / "rerun"
        # a partial table5-only run first, so the rerun overwrites one
        # task's metrics and writes the other's fresh
        assert main(["table5", "--smoke", "--fleet-metrics",
                     "--out", str(rerun)]) == 0
        capsys.readouterr()
        for out, jobs in ((ser, []), (par, ["--jobs", "2"]),
                          (rerun, ["--jobs", "2"])):
            assert main([*EXPERIMENTS, *jobs, "--out", str(out)]) == 0
            capsys.readouterr()
        serial_bytes = (ser / "fleet_metrics.json").read_bytes()
        for out in (par, rerun):
            assert (out / "fleet_metrics.json").read_bytes() == serial_bytes
        # the faults run's injected retransmits reach the merged view
        merged = json.loads(serial_bytes)
        pressure = merged["rnic.faults.rnr-pressure.rnic"]
        assert pressure["retransmits"]["value"] > 0

    def test_single_task_fleet_metrics_is_its_snapshot(self, tmp_path,
                                                       capsys):
        assert main(["table5", "--smoke", "--fleet-metrics",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        merged = json.loads((tmp_path / "fleet_metrics.json").read_text())
        per_task = json.loads(
            (tmp_path / "table5.metrics.json").read_text())
        # one task: the merge is that task's snapshot verbatim
        assert merged == per_task

    def test_failed_task_stale_metrics_are_not_merged(self, tmp_path,
                                                      capsys, monkeypatch):
        assert main([*EXPERIMENTS, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr("repro.experiments.__main__.REGISTRY",
                            {**REGISTRY, "faults": _boom})
        assert main([*EXPERIMENTS, "--out", str(tmp_path)]) == 1
        capsys.readouterr()
        # faults.metrics.json is the first run's; only table5 merges
        assert (tmp_path / "faults.metrics.json").exists()
        assert (tmp_path / "fleet_metrics.json").read_bytes() == \
            (tmp_path / "table5.metrics.json").read_bytes()

    def test_nothing_merged_leaves_no_fleet_files(self, tmp_path, capsys,
                                                  monkeypatch):
        assert main(["table5", "--smoke", "--fleet-metrics",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr("repro.experiments.__main__.REGISTRY",
                            {**REGISTRY, "table5": _boom})
        assert main(["table5", "--smoke", "--fleet-metrics",
                     "--out", str(tmp_path)]) == 1
        capsys.readouterr()
        assert (tmp_path / "table5.metrics.json").exists()
        assert not (tmp_path / "fleet_metrics.json").exists()
