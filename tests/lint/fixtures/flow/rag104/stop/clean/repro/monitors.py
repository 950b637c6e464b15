"""Clean twin of the dirty monitors: both keep the pending-event
handle and cancel it on stop()."""


class Monitor:
    """The BandwidthMonitor shape done right."""

    def __init__(self, sim, interval_ns: float) -> None:
        self.sim = sim
        self.interval_ns = interval_ns
        self.samples: list = []
        self._handle = None

    def start(self) -> None:
        self._handle = self.sim.schedule(self.interval_ns, self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self.sim.cancel(self._handle)
            self._handle = None

    def _tick(self) -> None:
        self.samples.append(self.sim.now)
        self._handle = self.sim.schedule(self.interval_ns, self._tick)


class Poller:
    def __init__(self, sim) -> None:
        self.sim = sim
        self._handle = None

    def start(self) -> None:
        self._handle = self.sim.schedule(10.0, self._poll)

    def stop(self) -> None:
        self.sim.cancel(self._handle)

    def _poll(self) -> None:
        self._handle = self.sim.schedule(10.0, self._poll)
