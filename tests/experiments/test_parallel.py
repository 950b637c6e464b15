"""Serial vs ``--jobs N`` equivalence of the experiment runner.

The parallel runner's contract is strict: fanning a batch out over
worker processes must change nothing observable — saved result files
byte-identical, stdout identical up to wall-clock timing lines, and
simulator trace digests identical across processes (worker processes
have different ``PYTHONHASHSEED`` values, which is exactly the hazard
the deterministic cache-key mapping exists to neutralize).
"""

import concurrent.futures
import multiprocessing
import pathlib

from repro.experiments.__main__ import main

FAST_EXPERIMENTS = ["table1", "fig4", "stealth"]


def _dir_bytes(path) -> dict:
    return {
        p.name: p.read_bytes()
        for p in sorted(pathlib.Path(path).iterdir())
    }


def _strip_timing(stdout: str) -> list:
    """Drop the ``[name: 1.2s -> path]`` lines, whose wall times vary."""
    return [
        line for line in stdout.splitlines()
        if not (line.startswith("[") and "s -> " in line)
    ]


def _trace_digest_worker(seed: int) -> str:
    """Drive a small cluster workload with tracing on; returns the
    event-trace digest.  Runs in a spawned process with its own random
    hash seed."""
    from repro.host.cluster import Cluster
    from repro.sim.units import MEBIBYTE

    cluster = Cluster(seed=seed)
    cluster.sim.enable_tracing()
    server = cluster.add_host("server", memory_size=4 * MEBIBYTE)
    client = cluster.add_host("client")
    conn = cluster.connect(client, server, max_send_wr=8)
    mr = server.reg_mr(1 * MEBIBYTE)
    for i in range(64):
        conn.post_read(mr, (i * 192) % 4096, 64)
        conn.await_completions(1)
    return cluster.sim.trace_digest


class TestParallelRunner:
    def test_jobs_output_byte_identical_to_serial(self, tmp_path, capsys):
        ser = tmp_path / "serial"
        par = tmp_path / "parallel"
        assert main([*FAST_EXPERIMENTS, "--metrics",
                     "--out", str(ser)]) == 0
        serial_out = capsys.readouterr().out
        assert main([*FAST_EXPERIMENTS, "--metrics", "--jobs", "4",
                     "--out", str(par)]) == 0
        parallel_out = capsys.readouterr().out

        # tables and <name>.metrics.json snapshots alike
        assert _dir_bytes(ser) == _dir_bytes(par)
        assert any(name.endswith(".metrics.json") for name in _dir_bytes(ser))
        assert _strip_timing(serial_out.replace(str(ser), str(par))) == \
            _strip_timing(parallel_out)

    def test_more_jobs_than_tasks(self, tmp_path, capsys):
        # worker count is clamped to the batch size; a wide pool on a
        # narrow batch must not hang or duplicate work
        assert main(["table1", "--jobs", "8", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "table1.txt").exists()


class TestCrossProcessDigests:
    def test_trace_digest_identical_across_worker_processes(self):
        context = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=2, mp_context=context, max_tasks_per_child=1,
        ) as pool:
            digests = list(pool.map(_trace_digest_worker, [11, 11]))
        assert digests[0] == digests[1]
        # and a different seed must give a different trace
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=context,
        ) as pool:
            other = pool.submit(_trace_digest_worker, 12).result()
        assert other != digests[0]
