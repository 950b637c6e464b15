"""Ragnar, reproduced: RDMA NIC volatile-channel attacks on a simulated
RNIC substrate.

The package mirrors the paper's structure:

* :mod:`repro.rnic`, :mod:`repro.verbs`, :mod:`repro.host`,
  :mod:`repro.fabric` — the substrate: a microarchitectural RNIC model
  behind a verbs-like API on a simulated multi-host testbed;
* :mod:`repro.revengine` — the Section IV reverse-engineering
  microbenchmarks (priority sweep, ULI linearity, offset sweeps);
* :mod:`repro.covert` — the three covert channels of Section V;
* :mod:`repro.side` + :mod:`repro.apps` + :mod:`repro.ml` — the
  Section VI side-channel attacks on a distributed database and a
  Sherman-style disaggregated-memory B+ tree;
* :mod:`repro.defense` / :mod:`repro.baselines` — the Table I defenses
  and the Pythia baseline;
* :mod:`repro.experiments` — drivers regenerating every table/figure.

Quick taste::

    from repro import Cluster, cx5

    cluster = Cluster(seed=0)
    server = cluster.add_host("server", spec=cx5())
    client = cluster.add_host("client", spec=cx5())
    conn = cluster.connect(client, server)
    mr = server.reg_mr(2 * 1024 * 1024)
    wc = conn.read_blocking(mr, offset=0, length=64)
    print(f"RDMA read latency: {wc.latency:.0f} ns")
"""

from repro.host import Cluster, Host, HostMemory, RDMAConnection
from repro.rnic import RNIC, RNICSpec, cx4, cx5, cx6, get_spec
from repro.telemetry import BandwidthMonitor, CounterSampler, ProbeTarget, ULIProbe
from repro.verbs import (
    AccessFlags,
    Context,
    Opcode,
    QPCapabilities,
    QPType,
    SendWR,
    WCStatus,
)

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "Host",
    "HostMemory",
    "RDMAConnection",
    "RNIC",
    "RNICSpec",
    "cx4",
    "cx5",
    "cx6",
    "get_spec",
    "BandwidthMonitor",
    "CounterSampler",
    "ProbeTarget",
    "ULIProbe",
    "AccessFlags",
    "Context",
    "Opcode",
    "QPCapabilities",
    "QPType",
    "SendWR",
    "WCStatus",
    "__version__",
]
