"""Hardware partitioning mitigation (Section VII).

"Direct mitigation involves fixing hardware features like eliminating
priority races and mitigating offset effects by partitioning traffic
workloads fairly ... which is costly and degrades performance."

:class:`PartitionedTranslationUnit` gives every tenant its own
translation pipeline, history registers and a *disjoint slice* of the
banks.  Cross-tenant volatile coupling disappears (the channels die),
but each tenant now runs on ``banks / tenants`` banks plus a partition-
lookup overhead — the performance cost the paper warns about.
"""

from __future__ import annotations

from typing import Hashable, Optional

import numpy as np

from repro.rnic.spec import RNICSpec
from repro.rnic.translation import TranslationBreakdown, TranslationUnit

#: Extra per-request cost of the partition lookup/steering logic.
PARTITION_OVERHEAD_NS = 40.0


class PartitionedTranslationUnit:
    """Per-tenant translation units over disjoint bank slices.

    Drop-in replacement for :class:`TranslationUnit`: ``admit`` takes an
    extra ``tenant`` argument; each tenant's requests are served by a
    private unit whose bank count is the fair share of the real banks.
    """

    def __init__(self, spec: RNICSpec, num_partitions: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        if num_partitions <= 0:
            raise ValueError("need at least one partition")
        if spec.tpu_banks // num_partitions < 1:
            raise ValueError(
                f"{num_partitions} partitions leave no banks each "
                f"(unit has {spec.tpu_banks})"
            )
        self.spec = spec
        self.num_partitions = num_partitions
        self._rng = rng if rng is not None else np.random.default_rng(0)  # ragnar-lint: disable=RAG101 — standalone construction only; every package caller passes a seed-derived stream
        self._units: dict[Hashable, TranslationUnit] = {}

    def _unit_for(self, tenant: Hashable) -> TranslationUnit:
        unit = self._units.get(tenant)
        if unit is None:
            if len(self._units) >= self.num_partitions:
                raise ValueError(
                    f"partition budget exhausted ({self.num_partitions}); "
                    f"cannot admit tenant {tenant!r}"
                )
            import dataclasses

            sliced = dataclasses.replace(
                self.spec,
                tpu_banks=max(self.spec.tpu_banks // self.num_partitions, 1),
            )
            unit = TranslationUnit(
                sliced,
                rng=np.random.default_rng(self._rng.integers(2**63)),
            )
            self._units[tenant] = unit
        return unit

    def admit(
        self,
        now: float,
        mr_key: Hashable,
        offset: int,
        size: int,
        tenant: Hashable = "default",
        want_breakdown: bool = False,
    ) -> tuple[float, Optional[TranslationBreakdown]]:
        """Serve a request on the tenant's private unit."""
        unit = self._unit_for(tenant)
        finish, breakdown = unit.admit(
            now, mr_key, offset, size, want_breakdown=want_breakdown
        )
        return finish + PARTITION_OVERHEAD_NS, breakdown

    @property
    def tenants(self) -> list:
        return list(self._units)


def with_partitioning(spec: RNICSpec, num_partitions: int,
                      rng: Optional[np.random.Generator] = None
                      ) -> PartitionedTranslationUnit:
    """Convenience constructor mirroring :func:`with_noise_mitigation`."""
    return PartitionedTranslationUnit(spec, num_partitions, rng=rng)
