"""Engine-equivalence tests: the C event core and the pure-Python core
must be behaviourally identical — event order, clocks, counters, and
determinism trace digests.  Every test here runs against each available
core via :func:`repro.sim.kernel.make_simulator_class`.
"""

import pytest

from repro.sim.errors import SimulationError
from repro.sim.event import PyEventCore
from repro.sim.kernel import make_simulator_class

CORES = [PyEventCore]
try:
    from repro.sim import _speedups
    CORES.append(_speedups.EventCore)
except ImportError:
    pass

SIM_CLASSES = {core.__name__: make_simulator_class(core) for core in CORES}


@pytest.fixture(params=sorted(SIM_CLASSES), ids=sorted(SIM_CLASSES))
def sim_class(request):
    return SIM_CLASSES[request.param]


def _drive(sim) -> list:
    """A workload mixing everything the engines must agree on: time
    ordering, equal-time FIFO, priorities, nested scheduling, args, and
    cancellation (incl. idempotent double-cancel)."""
    fired = []

    def worker(tag):
        fired.append((sim.now, tag))
        if tag < 40:
            sim.schedule(7.0, worker, tag + 10)

    for tag in range(5):
        sim.schedule(50.0, worker, tag)
    sim.schedule(50.0, worker, 90, priority=-2)
    sim.schedule(50.0, worker, 91, priority=3)
    doomed = sim.schedule(10.0, worker, 99)
    sim.cancel(doomed)
    sim.cancel(doomed)
    sim.schedule(80.0, worker, 7)
    sim.run()
    return fired


class TestPerEngine:
    def test_workload_shape(self, sim_class):
        sim = sim_class()
        fired = _drive(sim)
        tags = [tag for _, tag in fired]
        assert 99 not in tags                      # cancelled
        assert tags[0] == 90 and tags[6] == 91     # priority brackets FIFO
        assert tags[1:6] == [0, 1, 2, 3, 4]        # equal-time FIFO
        assert sim.pending == 0
        assert sim.events_fired == len(fired)

    def test_pending_excludes_cancelled(self, sim_class):
        sim = sim_class()
        handles = [sim.schedule(float(t + 1), lambda: None)
                   for t in range(5)]
        assert sim.pending == 5
        sim.cancel(handles[1])
        sim.cancel(handles[3])
        assert sim.pending == 3
        sim.cancel(handles[3])                     # idempotent
        assert sim.pending == 3
        sim.run()
        assert sim.events_fired == 3
        assert sim.pending == 0

    def test_cancel_fired_handle_is_noop(self, sim_class):
        sim = sim_class()
        fired = sim.schedule(10.0, lambda: None)
        sim.run()
        sim.schedule(5.0, lambda: None)
        sim.cancel(fired)
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0
        assert sim.events_fired == 2

    def test_cancel_handle_from_before_reset_is_noop(self, sim_class):
        sim = sim_class()
        stale = sim.schedule(10.0, lambda: None)
        sim.reset()
        sim.schedule(5.0, lambda: None)
        sim.cancel(stale)
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0
        assert sim.events_fired == 1

    def test_cancel_fired_handle_is_noop_bounded_paths(self, sim_class):
        """The ``until``/``max_events`` loop and :meth:`step` retire
        their handles the same way as the fast drain."""
        sim = sim_class()
        by_step = sim.schedule(1.0, lambda: None)
        by_bound = sim.schedule(2.0, lambda: None)
        sim.schedule(9.0, lambda: None)
        assert sim.step()
        sim.run(until=5.0)
        sim.cancel(by_step)
        sim.cancel(by_bound)
        assert sim.pending == 1

    def test_pending_tracks_partial_run(self, sim_class):
        sim = sim_class()
        for t in range(10):
            sim.schedule(float(t), lambda: None)
        sim.run(max_events=4)
        assert sim.pending == 6
        assert sim.events_fired == 4

    def test_recycling_stress(self, sim_class):
        """Fire and re-schedule in waves; a core recycling event structs
        must never confuse a fresh event with a dead handle."""
        sim = sim_class()
        fired = []
        for wave in range(5):
            handles = [
                sim.schedule(float(i % 3), fired.append, (wave, i))
                for i in range(200)
            ]
            for handle in handles[::7]:
                sim.cancel(handle)
            sim.run()
            assert sim.pending == 0
        expected_per_wave = 200 - len(range(0, 200, 7))
        assert len(fired) == 5 * expected_per_wave
        assert sim.events_fired == len(fired)
        # within a wave, equal-time events keep scheduling order
        wave0 = [i for w, i in fired if w == 0]
        assert wave0 == sorted(wave0, key=lambda i: (i % 3, i))

    def test_validation_matches(self, sim_class):
        sim = sim_class()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(1.0, lambda: None, priority=2 ** 30)
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_trace_digest_reproducible(self, sim_class):
        digests = []
        for _ in range(2):
            sim = sim_class(trace=True)
            _drive(sim)
            digests.append(sim.trace_digest)
        assert digests[0] == digests[1]
        # a different workload must not collide
        other = sim_class(trace=True)
        other.schedule(1.0, lambda: None)
        other.run()
        assert other.trace_digest != digests[0]


@pytest.mark.skipif(len(CORES) < 2,
                    reason="C core not built; nothing to compare")
class TestCrossEngine:
    def test_engines_agree(self):
        results = {}
        for name, sim_class in SIM_CLASSES.items():
            sim = sim_class(trace=True)
            fired = _drive(sim)
            results[name] = (
                fired, sim.now, sim.events_fired, sim.trace_digest
            )
        reference = next(iter(results.values()))
        for name, outcome in results.items():
            assert outcome == reference, name

    def test_engines_agree_on_bounded_runs(self):
        outcomes = {}
        for name, sim_class in SIM_CLASSES.items():
            sim = sim_class()
            fired = []
            for t in range(20):
                sim.schedule(float(10 * t), fired.append, t)
            sim.run(until=45.0)
            mid = (list(fired), sim.now, sim.pending)
            sim.run(max_events=3)
            outcomes[name] = (mid, list(fired), sim.now, sim.pending)
        reference = next(iter(outcomes.values()))
        for name, outcome in outcomes.items():
            assert outcome == reference, name
