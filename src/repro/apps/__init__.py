"""Real-world application substrates the side channels attack.

* :mod:`shuffle_join` — distributed-database shuffle and join operators
  whose network phases produce Figure 12's fingerprints;
* :mod:`sherman` — a write-optimized distributed B+ tree on
  disaggregated memory, modelled after SHERMAN (the Section VI-B
  victim), with one-sided searches, CAS locking and a 64 B KV leaf
  layout.
"""

from repro.apps.shuffle_join import (
    DatabaseNode,
    JoinOperator,
    ShuffleOperator,
    OperatorSchedule,
)
from repro.apps.sherman import ShermanClient, ShermanMemoryServer

__all__ = [
    "DatabaseNode",
    "ShuffleOperator",
    "JoinOperator",
    "OperatorSchedule",
    "ShermanMemoryServer",
    "ShermanClient",
]
