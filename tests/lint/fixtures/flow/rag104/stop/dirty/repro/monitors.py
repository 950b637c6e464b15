"""Fixture: RAG104 — self-rescheduling loops whose stop() cannot
cancel the pending event."""


class LeakyMonitor:
    """Exactly the BandwidthMonitor bug shape: _tick reschedules itself
    with the handle discarded and stop() only clears a flag, so a
    stop->start cycle runs two tick chains."""

    def __init__(self, sim, interval_ns: float) -> None:
        self.sim = sim
        self.interval_ns = interval_ns
        self.samples: list = []
        self._running = False

    def start(self) -> None:
        self._running = True
        self.sim.schedule(self.interval_ns, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self.samples.append(self.sim.now)
        self.sim.schedule(self.interval_ns, self._tick)


class FlagKeeper:
    """Keeps the handle but stop() never cancels it — still RAG104."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self._handle = None

    def start(self) -> None:
        self._handle = self.sim.schedule(10.0, self._poll)

    def stop(self) -> None:
        self._handle = None

    def _poll(self) -> None:
        self._handle = self.sim.schedule(10.0, self._poll)
