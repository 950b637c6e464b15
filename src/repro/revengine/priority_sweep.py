"""The Grain-I/II priority study (Figure 4).

Two flows are configured in ETS mode with 50/50 bandwidth shares
(``mlnx_qos`` in the paper) and swept over opcode pairs, message sizes
and QP counts; the deviation of each flow from its solo bandwidth is
classified with the figure's color scale.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable, Optional

from repro.rnic.bandwidth import BandwidthAllocator, FluidFlow
from repro.rnic.spec import RNICSpec, cx5
from repro.verbs.enums import Opcode

#: The figure's qualitative color classes.
NO_DROP = "no_drop"            # dark red: no significant decrease
HALF_DROP = "half_drop"        # medium red: ~50 % decrease
SLIGHT_DROP = "slight_drop"    # light red: slight decrease
INCREASE = "increase"          # blue: abnormal increase

DEFAULT_SIZES = (64, 128, 256, 512, 1024, 2048, 4096, 16384, 65536)
DEFAULT_QP_NUMS = (1, 2, 4, 8, 16)
DEFAULT_OPCODES = (Opcode.RDMA_WRITE, Opcode.RDMA_READ, Opcode.ATOMIC_FETCH_ADD)


def classify_outcome(ratio: float) -> str:
    """Map contended/solo bandwidth ratio to Figure 4's color classes."""
    if ratio > 1.05:
        return INCREASE
    if ratio >= 0.85:
        return NO_DROP
    if ratio >= 0.65:
        return SLIGHT_DROP
    return HALF_DROP


@dataclasses.dataclass(frozen=True)
class CompetitionResult:
    """Outcome of one parameter combination for the *inducer/indicator*
    pair (Figure 4 plots the indicator's decrease when competing with
    the inducer)."""

    inducer_op: Opcode
    inducer_size: int
    inducer_qps: int
    indicator_op: Opcode
    indicator_size: int
    indicator_qps: int
    indicator_solo_bps: float
    indicator_contended_bps: float

    @property
    def ratio(self) -> float:
        if self.indicator_solo_bps == 0:
            return 0.0
        return self.indicator_contended_bps / self.indicator_solo_bps

    @property
    def outcome(self) -> str:
        return classify_outcome(self.ratio)


class PrioritySweep:
    """Runs the two-flow competition benchmark over a parameter grid."""

    def __init__(self, spec: Optional[RNICSpec] = None) -> None:
        self.spec = spec if spec is not None else cx5()
        self.allocator = BandwidthAllocator(self.spec)

    def compete(
        self,
        inducer_op: Opcode,
        inducer_size: int,
        indicator_op: Opcode,
        indicator_size: int,
        inducer_qps: int = 8,
        indicator_qps: int = 8,
    ) -> CompetitionResult:
        """One cell of the study: how does the indicator flow fare when
        the inducer flow shares the NIC?"""
        inducer = FluidFlow(opcode=inducer_op, msg_size=inducer_size,
                            qp_num=inducer_qps, traffic_class=0)
        indicator = FluidFlow(opcode=indicator_op, msg_size=indicator_size,
                              qp_num=indicator_qps, traffic_class=1)
        solo = self.allocator.allocate([indicator])[indicator.flow_id]
        contended = self.allocator.allocate([inducer, indicator])[indicator.flow_id]
        return CompetitionResult(
            inducer_op=inducer_op,
            inducer_size=inducer.msg_size,
            inducer_qps=inducer_qps,
            indicator_op=indicator_op,
            indicator_size=indicator.msg_size,
            indicator_qps=indicator_qps,
            indicator_solo_bps=solo,
            indicator_contended_bps=contended,
        )

    def sweep(
        self,
        opcodes: Iterable[Opcode] = DEFAULT_OPCODES,
        sizes: Iterable[int] = DEFAULT_SIZES,
        qp_nums: Iterable[int] = DEFAULT_QP_NUMS,
    ) -> list[CompetitionResult]:
        """The full grid.  With the default axes this is
        ``3*3 opcode pairs x 9x9 sizes x 5x5 qps`` minus the atomic
        size degeneracy — comfortably over the paper's "more than 6000
        parameter combinations"."""
        opcodes = list(opcodes)
        sizes = list(sizes)
        qp_nums = list(qp_nums)
        results = []
        seen = set()
        for ind_op, comp_op in itertools.product(opcodes, repeat=2):
            ind_sizes = [8] if ind_op.is_atomic else sizes
            comp_sizes = [8] if comp_op.is_atomic else sizes
            for ind_size, comp_size in itertools.product(ind_sizes, comp_sizes):
                for ind_qp, comp_qp in itertools.product(qp_nums, repeat=2):
                    key = (ind_op, ind_size, ind_qp, comp_op, comp_size, comp_qp)
                    if key in seen:
                        continue
                    seen.add(key)
                    results.append(
                        self.compete(
                            inducer_op=comp_op,
                            inducer_size=comp_size,
                            indicator_op=ind_op,
                            indicator_size=ind_size,
                            inducer_qps=comp_qp,
                            indicator_qps=ind_qp,
                        )
                    )
        return results
