"""Capstone integration tests: the full Figure 2 threat model.

Three parties — a server hosting a real application, a victim client
using it, and an attacker client that only issues its own reads — with
the secret crossing between them purely as contention.
"""

from repro.rnic import FluidFlow, cx5
from repro.sim.units import MILLISECONDS
from repro.verbs.enums import Opcode


class TestFingerprintingUnderBackgroundTenants:
    def test_detection_survives_a_benign_tenant(self):
        from repro.apps.shuffle_join import OperatorSchedule, ShuffleOperator
        from repro.side.fingerprint import (
            ShuffleJoinFingerprinter,
            calibrate_templates,
        )

        templates = calibrate_templates(cx5())
        attacker = ShuffleJoinFingerprinter(templates, spec=cx5())

        def schedule(node):
            # a benign tenant streams constantly next to the database
            benign = FluidFlow(opcode=Opcode.RDMA_READ, msg_size=8192,
                               qp_num=2, demand_bps=5e9, label="benign")
            node.host.rnic.add_fluid_flow(benign)
            s = OperatorSchedule(node)
            s.add("shuffle", ShuffleOperator(), 25 * MILLISECONDS)
            return s

        result = attacker.run(schedule, seed=11)
        assert result.detection_rate == 1.0

