"""Tenant traffic profiles: what Grain-I..III defenses can observe.

A profile deliberately contains *no addresses* — address-granular
(Grain-IV) telemetry is what all deployed defenses lack, and what
Ragnar's intra-MR channel hides behind.
"""

from __future__ import annotations

import dataclasses

from repro.sim.units import SECONDS, bytes_to_bits
from repro.verbs.enums import Opcode

@dataclasses.dataclass(frozen=True)
class TenantProfile:
    """Aggregated observables for one tenant over an observation window."""

    tenant: str
    duration_ns: float
    #: Grain-I: per-traffic-class byte totals.
    bytes_per_tc: dict[int, int] = dataclasses.field(default_factory=dict)
    #: Grain-II: opcode mix and message-size histogram.
    opcode_counts: dict[Opcode, int] = dataclasses.field(default_factory=dict)
    msg_size_counts: dict[int, int] = dataclasses.field(default_factory=dict)
    #: Grain-III: RDMA resource populations.
    qp_count: int = 1
    mr_count: int = 1
    pd_count: int = 1
    #: Cache telemetry (for the cache guard).
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_accesses: int = 0

    def __post_init__(self) -> None:
        if self.duration_ns <= 0:
            raise ValueError("profile window must be positive")

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_per_tc.values())

    @property
    def total_messages(self) -> int:
        return sum(self.opcode_counts.values())

    @property
    def avg_rate_bps(self) -> float:
        return bytes_to_bits(self.total_bytes) / (self.duration_ns / SECONDS)

    @property
    def avg_pps(self) -> float:
        return self.total_messages / (self.duration_ns / SECONDS)

    @property
    def mean_msg_size(self) -> float:
        total = sum(size * count for size, count in self.msg_size_counts.items())
        count = sum(self.msg_size_counts.values())
        return total / count if count else 0.0

    @property
    def write_fraction(self) -> float:
        writes = self.opcode_counts.get(Opcode.RDMA_WRITE, 0)
        total = self.total_messages
        return writes / total if total else 0.0

    @property
    def atomic_fraction(self) -> float:
        atomics = sum(
            count for opcode, count in self.opcode_counts.items()
            if opcode.is_atomic
        )
        total = self.total_messages
        return atomics / total if total else 0.0

    @property
    def cache_miss_rate(self) -> float:
        return self.cache_misses / self.cache_accesses if self.cache_accesses else 0.0

    @classmethod
    def from_qps(
        cls,
        tenant: str,
        qps,
        duration_ns: float,
        mr_count: int = 1,
        pd_count: int = 1,
        traffic_class: int = 0,
    ) -> "TenantProfile":
        """Aggregate a tenant's per-QP telemetry into a profile.

        This is HARMONIC's actual Grain-III data path: the provider
        attributes counters per QP, and QPs belong to tenants.  Exact
        opcode and message-size histograms come straight from the QPs.
        """
        opcode_counts: dict[Opcode, int] = {}
        msg_size_counts: dict[int, int] = {}
        total_bytes = 0
        for qp in qps:
            total_bytes += qp.bytes_posted
            for opcode, count in qp.opcode_counts.items():
                opcode_counts[opcode] = opcode_counts.get(opcode, 0) + count
            for size, count in qp.size_counts.items():
                msg_size_counts[size] = msg_size_counts.get(size, 0) + count
        return cls(
            tenant=tenant,
            duration_ns=duration_ns,
            bytes_per_tc={traffic_class: total_bytes},
            opcode_counts=opcode_counts,
            msg_size_counts=msg_size_counts,
            qp_count=len(list(qps)) or 1,
            mr_count=mr_count,
            pd_count=pd_count,
        )


@dataclasses.dataclass(frozen=True)
class Verdict:
    """A detector's decision about one tenant profile."""

    detector: str
    flagged: bool
    reason: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.flagged
