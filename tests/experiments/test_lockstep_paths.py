"""Which path the lockstep channel sessions of the paper experiments take.

Every clean session of table1, table5, mitigation-noise, fig10, fig11,
pythia, stealth and faults' clean leg must be planned whole by
:class:`repro.rnic.closed_loop.Plan` (``lockstep_runs``), with no
decline counted; faults' bursty-loss, pause-storm and rnr-pressure legs
must decline with the reason their fault plan implies.  A guard that
starts falling back silently — slower, same tables — fails here.
"""

from collections import Counter

import pytest

from repro.covert import uli_channel
from repro.experiments import faults
from repro.experiments.runner import REGISTRY, _invoke
from repro.rnic.counters import NICCounters


@pytest.fixture
def paths(monkeypatch):
    """Run a callable; return (sessions built, sessions planned,
    declines by reason) over every NIC it built."""
    nics, sessions = [], []
    counters_init = NICCounters.__init__
    session_init = uli_channel._Session.__init__

    def count_nic(self, *args, **kwargs):
        counters_init(self, *args, **kwargs)
        nics.append(self)

    def count_session(self, *args, **kwargs):
        session_init(self, *args, **kwargs)
        sessions.append(self)

    monkeypatch.setattr(NICCounters, "__init__", count_nic)
    monkeypatch.setattr(uli_channel._Session, "__init__", count_session)

    def run(call):
        nics.clear()
        sessions.clear()
        call()
        declines = Counter()
        for counters in nics:
            declines.update(counters.batch_fallbacks)
        return (len(sessions), sum(c.lockstep_runs for c in nics),
                dict(declines))

    return run


@pytest.mark.parametrize("name", ["table1", "table5", "mitigation-noise",
                                  "fig10", "fig11", "pythia", "stealth"])
def test_clean_sessions_are_planned(paths, name):
    built, planned, declines = paths(
        lambda: _invoke(REGISTRY[name], 0, True, {}))
    assert built and planned == built and declines == {}


@pytest.mark.parametrize("scenario, reason", [
    ("clean", None),
    ("bursty-loss", "lossy"),             # fault processes on the links
    ("pause-storm", "not_quiescent"),     # the injector's pending burst
    ("rnr-pressure", "not_quiescent"),    # the SEND client's events
])
def test_fault_legs(paths, scenario, reason):
    built, planned, declines = paths(
        lambda: faults.run(seed=0, smoke=True, scenarios=[scenario]))
    assert built
    if reason is None:
        assert planned == built and declines == {}
    else:
        assert planned == 0 and declines == {reason: built}
