"""HARMONIC-style Grain-II/III defense.

HARMONIC (Lou et al., NSDI'24) adds per-opcode counters and RDMA
resource-utilization telemetry for performance isolation.  Our detector
encodes its published signatures of microarchitectural abuse:

* pps-bound floods of tiny messages (Collie/Husky's anomaly recipes);
* atomic-heavy mixes (atomics serialize the responder pipeline);
* abnormal RDMA resource populations (QP/MR churn — Grain-III);
* write floods at sizes chosen to flip arbitration (the Grain-II
  availability attacks of Zhang/Kong).

The Ragnar inter-/intra-MR senders present ordinary read-mostly
profiles with 1-2 MRs and moderate rates, so every rule passes them —
Table I's central claim.
"""

from __future__ import annotations

from repro.defense.profile import TenantProfile, Verdict
from repro.rnic.spec import RNICSpec
from repro.sim.units import SECONDS


class HarmonicDetector:
    """Grain-II/III anomaly rules over tenant profiles."""

    name = "harmonic"

    def __init__(
        self,
        spec: RNICSpec,
        pps_fraction_threshold: float = 0.5,
        atomic_fraction_threshold: float = 0.5,
        max_qps: int = 64,
        max_mrs: int = 64,
        tiny_size: int = 64,
        tiny_write_pps_threshold: float = 1e6,  # ragnar-lint: disable=RAG007 — a packet rate, not a time conversion
    ) -> None:
        self.spec = spec
        self.pps_fraction_threshold = pps_fraction_threshold
        self.atomic_fraction_threshold = atomic_fraction_threshold
        self.max_qps = max_qps
        self.max_mrs = max_mrs
        self.tiny_size = tiny_size
        self.tiny_write_pps_threshold = tiny_write_pps_threshold

    def inspect(self, profile: TenantProfile) -> Verdict:
        """Run every HARMONIC rule; first flagged verdict wins."""
        checks = (
            self._check_pps_flood,
            self._check_atomic_flood,
            self._check_resource_abuse,
            self._check_tiny_write_flood,
        )
        for check in checks:
            verdict = check(profile)
            if verdict.flagged:
                return verdict
        return Verdict(detector=self.name, flagged=False,
                       reason="profile within HARMONIC envelopes")

    def _check_pps_flood(self, profile: TenantProfile) -> Verdict:
        limit = self.spec.max_pps_rx * self.pps_fraction_threshold
        if profile.avg_pps > limit:
            return Verdict(self.name, True,
                           f"message rate {profile.avg_pps:.2e} pps floods "
                           f"the processing units")
        return Verdict(self.name, False)

    def _check_atomic_flood(self, profile: TenantProfile) -> Verdict:
        if (profile.atomic_fraction > self.atomic_fraction_threshold
                and profile.total_messages > 1000):
            return Verdict(self.name, True,
                           f"atomic fraction {profile.atomic_fraction:.0%} "
                           f"serializes the responder")
        return Verdict(self.name, False)

    def _check_resource_abuse(self, profile: TenantProfile) -> Verdict:
        if profile.qp_count > self.max_qps or profile.mr_count > self.max_mrs:
            return Verdict(self.name, True,
                           f"resource churn: {profile.qp_count} QPs / "
                           f"{profile.mr_count} MRs")
        return Verdict(self.name, False)

    def _check_tiny_write_flood(self, profile: TenantProfile) -> Verdict:
        tiny_writes = sum(
            count for size, count in profile.msg_size_counts.items()
            if size <= self.tiny_size
        )
        tiny_pps = tiny_writes / (profile.duration_ns / SECONDS)
        if (profile.write_fraction > 0.9
                and tiny_pps > self.tiny_write_pps_threshold):
            return Verdict(self.name, True,
                           f"tiny-write flood at {tiny_pps:.2e} pps "
                           f"(Grain-II availability signature)")
        return Verdict(self.name, False)
