"""Prior-work baselines Ragnar is compared against.

* :mod:`pythia` — Pythia's persistent (cache-eviction) covert channel
  over the RNIC's MPT cache (Tsai et al., USENIX Security'19): the
  state of the art Ragnar claims 3.2x over, and the attack that
  :class:`~repro.defense.CacheGuard` catches.
"""

from repro.baselines.pythia import PythiaChannel, PythiaConfig, find_eviction_set

__all__ = [
    "PythiaChannel",
    "PythiaConfig",
    "find_eviction_set",
]
