"""Regression tests for the real findings the flow pass surfaced.

Each test pins the *behaviour* the fix bought, so reintroducing the
bug fails here even if the lint rule is later relaxed:

* RAG101 on ``repro.experiments.mitigation``: ``run_partition(seed)``
  dropped its seed on the floor when constructing translation units.
* RAG104 on ``repro.side.fingerprint`` / ``repro.covert.
  priority_channel``: self-rescheduling sampler chains dropped their
  handles, leaving a live event in the queue after the run.
"""

from repro.lint.flow import run_flow


class TestMitigationThreadsItsSeed:
    def test_run_partition_units_derive_from_the_seed(self):
        """The constructed units' RNGs must differ across seeds (they
        used to share default_rng(0) regardless)."""
        from repro.experiments.mitigation import run_partition
        from repro.sim.random import RandomStreams

        a = RandomStreams(1).stream("mitigation.solo").random(4)
        b = RandomStreams(2).stream("mitigation.solo").random(4)
        assert tuple(a) != tuple(b)

        # and the experiment itself stays deterministic per seed
        first = run_partition(seed=7)
        second = run_partition(seed=7)
        assert first.rows == second.rows

    def test_mitigation_module_carries_no_flow_findings(self):
        report = run_flow(["src/repro/experiments/mitigation.py"])
        details = "\n".join(f.format() for f in report.active)
        assert report.clean, details


class TestSamplerChainsAreCancelled:
    def test_fingerprint_and_priority_channel_are_rag104_clean(self):
        """The per-file shape of the fix (handle kept in a cell,
        cancelled on the stop path) must keep these files free of
        handle-escape findings."""
        report = run_flow([
            "src/repro/side/fingerprint.py",
            "src/repro/covert/priority_channel.py",
        ])
        rag104 = [f for f in report.active if f.rule_id == "RAG104"]
        details = "\n".join(f.format() for f in rag104)
        assert not rag104, details

    def test_priority_channel_leaves_no_pending_sampler(self):
        from repro.covert.priority_channel import (
            PriorityChannel,
            PriorityChannelConfig,
        )
        from repro.sim.units import MILLISECONDS, SECONDS

        config = PriorityChannelConfig(
            bit_period_ns=1.0 * SECONDS,
            sample_interval_ns=100 * MILLISECONDS,
        )
        channel = PriorityChannel(config=config)
        result = channel.transmit([1, 0, 1], seed=3)
        assert result.error_rate == 0.0
