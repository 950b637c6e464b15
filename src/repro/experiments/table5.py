"""Table V: covert-channel bandwidth / error / effective bandwidth on
CX-4, CX-5 and CX-6 for all three granularity levels."""

from __future__ import annotations

from repro.covert import (
    InterMRChannel,
    IntraMRChannel,
    PAPER_BITSTREAM,
    PriorityChannel,
    random_bits,
)
from repro.covert.inter_mr import InterMRConfig
from repro.covert.intra_mr import IntraMRConfig
from repro.experiments.result import ExperimentResult
from repro.rnic.spec import SPEC_REGISTRY

#: The paper's Table V values, for the side-by-side in EXPERIMENTS.md.
PAPER_TABLE5 = {
    ("inter-traffic-class", "CX-4"): (1.0, 0.0),
    ("inter-traffic-class", "CX-5"): (1.1, 0.0),
    ("inter-traffic-class", "CX-6"): (1.1, 0.0),
    ("inter-mr", "CX-4"): (31.8e3, 0.0592),
    ("inter-mr", "CX-5"): (63.6e3, 0.0398),
    ("inter-mr", "CX-6"): (84.3e3, 0.0759),
    ("intra-mr", "CX-4"): (32.2e3, 0.0695),
    ("intra-mr", "CX-5"): (31.5e3, 0.0484),
    ("intra-mr", "CX-6"): (81.3e3, 0.0408),
}

RNIC_NAMES = ("CX-4", "CX-5", "CX-6")


def run(payload_bits: int = 192, seed: int = 0,
        smoke: bool = False) -> ExperimentResult:
    """Regenerate Table V on the simulated testbed.  ``smoke`` shrinks
    the payload to 48 bits — enough for every channel/RNIC row to carry
    a non-degenerate error estimate while keeping a traced run (the
    check.sh insight stage) fast."""
    if smoke:
        payload_bits = min(payload_bits, 48)

    rows = []
    bits = random_bits(payload_bits, seed=seed + 100)
    for name in RNIC_NAMES:
        spec = SPEC_REGISTRY[name]()
        result = PriorityChannel(spec).transmit(PAPER_BITSTREAM, seed=seed)
        rows.append(_row(result, "I+II", "Priority"))
    for name in RNIC_NAMES:
        spec = SPEC_REGISTRY[name]()
        channel = InterMRChannel(spec, InterMRConfig.best_for(name))
        rows.append(_row(channel.transmit(bits, seed=seed), "III",
                         "RDMA resources"))
    for name in RNIC_NAMES:
        spec = SPEC_REGISTRY[name]()
        channel = IntraMRChannel(spec, IntraMRConfig.best_for(name))
        rows.append(_row(channel.transmit(bits, seed=seed), "IV",
                         "Offset effect"))
    return ExperimentResult(
        experiment="table5",
        title="Covert-channel evaluation (paper Table V)",
        rows=rows,
        notes=(
            "absolute rates are simulator-scale; compare orderings and "
            "error bands against the paper columns"
        ),
    )


def _row(result, grain: str, base: str) -> dict:
    paper_bw, paper_err = PAPER_TABLE5.get(
        (result.channel, result.rnic), (float("nan"), float("nan"))
    )
    return {
        "channel": result.channel,
        "grain": grain,
        "base": base,
        "rnic": result.rnic,
        "bandwidth_bps": result.bandwidth_bps,
        "error_rate": result.error_rate,
        "effective_bps": result.effective_bandwidth_bps,
        "paper_bw_bps": paper_bw,
        "paper_error": paper_err,
    }
