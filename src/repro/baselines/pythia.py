"""The Pythia baseline: a persistent covert channel over the MPT cache.

Pythia (Tsai, Payer, Zhang — USENIX Security'19) observed that RNICs
cache MR/page-table state on-chip and built remote evict+time attacks
on it.  As a covert channel: the receiver owns a *probe MR*; the sender
owns an *eviction set* of MRs mapping to the same MPT cache set.  To
send a 1 the sender touches the whole eviction set (kicking the
receiver's MPT entry out); to send a 0 it stays idle.  The receiver
times one read of its probe MR per symbol: a cache miss (slow — the
RNIC refetches the MR context over PCIe) decodes as 1.

The channel is *persistent* (it flips durable cache state), which is
precisely why eviction telemetry — :class:`repro.defense.CacheGuard` —
sees it, and why the paper classifies Ragnar's volatile channels as
stealthier.  Its bandwidth is bounded by the eviction-set walk, giving
Ragnar its 3.2x headline on CX-5.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.analysis.clustering import two_means
from repro.covert.result import ChannelResult
from repro.host.cluster import Cluster, RDMAConnection
from repro.rnic.caches import SetAssocCache
from repro.rnic.spec import RNICSpec, cx5
from repro.rnic.translation import mr_cache_id
from repro.sim.units import MEBIBYTE
from repro.verbs.mr import MemoryRegion


@dataclasses.dataclass(frozen=True)
class PythiaConfig:
    """Eviction-channel parameters."""

    probe_size: int = 64
    #: MRs registered while hunting collisions.  With S cache sets the
    #: expected hits per set are pool/S, so the pool must be several
    #: times the set count x ways (Pythia registers thousands on real
    #: hardware for the same reason).
    mr_pool: int = 1024
    #: Guard between sender and receiver turns.  Pythia's endpoints have
    #: no shared clock, so its protocol budgets conservative timing
    #: slots; this dominates the symbol time.
    settle_ns: float = 6000.0

    def __post_init__(self) -> None:
        if self.mr_pool < 64:
            raise ValueError("pool too small to find an eviction set")


def find_eviction_set(cache: SetAssocCache, target_rkey: int,
                      candidate_rkeys: list[int]) -> list[int]:
    """Rkeys whose MPT entries share the target's cache set.

    Pythia reverse engineers this on hardware with timing; with the
    simulated cache we can compute the set index directly — the result
    is the same eviction set the timing search would find.
    """
    target_set = cache.set_index(mr_cache_id(target_rkey))
    colliding = [
        rkey for rkey in candidate_rkeys
        if cache.set_index(mr_cache_id(rkey)) == target_set
    ]
    return colliding[: cache.ways]


class PythiaChannel:
    """Evict-and-time covert channel between two clients of one server."""

    name = "pythia-mpt"

    def __init__(self, spec: Optional[RNICSpec] = None,
                 config: Optional[PythiaConfig] = None) -> None:
        self.spec = spec if spec is not None else cx5()
        self.config = config if config is not None else PythiaConfig()

    def _build(self, seed: int):
        cluster = Cluster(seed=seed)
        server = cluster.add_host("server", spec=self.spec,
                                  memory_size=32 * MEBIBYTE)
        tx_host = cluster.add_host("pythia-tx", spec=self.spec)
        rx_host = cluster.add_host("pythia-rx", spec=self.spec)
        tx_conn = cluster.connect(tx_host, server, max_send_wr=8)
        rx_conn = cluster.connect(rx_host, server, max_send_wr=8)
        # the receiver's probe MR plus the sender's candidate pool; on
        # 4 KB pages — Pythia targets exactly this non-hugepage state
        probe_mr = server.reg_mr(4096, huge_pages=False)
        pool = [
            server.reg_mr(4096, huge_pages=False)
            for _ in range(self.config.mr_pool)
        ]
        cache = server.rnic.translation.mpt_cache
        eviction_rkeys = find_eviction_set(
            cache, probe_mr.rkey, [mr.rkey for mr in pool]
        )
        if len(eviction_rkeys) < cache.ways:
            raise RuntimeError(
                f"only {len(eviction_rkeys)} colliding MRs in a pool of "
                f"{self.config.mr_pool}; enlarge mr_pool"
            )
        by_rkey = {mr.rkey: mr for mr in pool}
        eviction_mrs = [by_rkey[rkey] for rkey in eviction_rkeys]
        return cluster, tx_conn, rx_conn, probe_mr, eviction_mrs

    @staticmethod
    def _read(conn: RDMAConnection, mr: MemoryRegion, size: int) -> float:
        conn.post_read(mr, 0, size)
        wc = conn.await_completions(1)[0]
        if not wc.ok:
            raise RuntimeError(f"read failed: {wc.status}")
        return wc.latency

    def transmit(self, bits, seed: int = 0) -> ChannelResult:
        """Lockstep transmission; returns Table-V-style metrics."""
        bits = [1 if b else 0 for b in bits]
        if not bits:
            raise ValueError("nothing to transmit")
        cfg = self.config
        cluster, tx_conn, rx_conn, probe_mr, eviction_mrs = self._build(seed)

        # prime: receiver loads its MPT entry
        self._read(rx_conn, probe_mr, cfg.probe_size)
        latencies = []
        start = cluster.sim.now
        for bit in bits:
            if bit:
                for mr in eviction_mrs:  # evict the probe entry
                    self._read(tx_conn, mr, cfg.probe_size)
            cluster.run_for(cfg.settle_ns)
            # probe read re-primes the entry for the next symbol
            latencies.append(self._read(rx_conn, probe_mr, cfg.probe_size))
        duration = cluster.sim.now - start

        _, _, threshold = two_means(np.asarray(latencies))
        decoded = [1 if lat > threshold else 0 for lat in latencies]
        return ChannelResult.build(
            channel=self.name,
            rnic=self.spec.name,
            sent=bits,
            decoded=decoded,
            duration_ns=duration,
        )

    def cache_telemetry(self, bits, seed: int = 0) -> dict:
        """Run a transmission and report the MPT cache's counters —
        the evidence :class:`~repro.defense.CacheGuard` keys on.

        Besides the whole-run aggregates this also samples the eviction
        counter once per symbol (``eviction_series``: parallel
        timestamp/delta tuples) — the time series a polling defender
        such as :class:`repro.defense.OnlineCounterDefense` watches.
        Because the channel is persistent, every 1-symbol must kick
        real entries out of the cache and the series toggles with the
        payload; that per-symbol structure, not the aggregate, is what
        online change-point detectors key on."""
        bits = [1 if b else 0 for b in bits]
        cluster, tx_conn, rx_conn, probe_mr, eviction_mrs = self._build(seed)
        cache = cluster.hosts["server"].rnic.translation.mpt_cache
        cache.reset_stats()
        start = cluster.sim.now
        self._read(rx_conn, probe_mr, self.config.probe_size)
        sample_times = []
        sample_deltas = []
        last_evictions = cache.evictions
        for bit in bits:
            if bit:
                for mr in eviction_mrs:
                    self._read(tx_conn, mr, self.config.probe_size)
            cluster.run_for(self.config.settle_ns)
            self._read(rx_conn, probe_mr, self.config.probe_size)
            sample_times.append(cluster.sim.now - start)
            sample_deltas.append(float(cache.evictions - last_evictions))
            last_evictions = cache.evictions
        return {
            "duration_ns": cluster.sim.now - start,
            "accesses": cache.hits + cache.misses,
            "misses": cache.misses,
            "evictions": cache.evictions,
            "eviction_series": (tuple(sample_times), tuple(sample_deltas)),
        }
