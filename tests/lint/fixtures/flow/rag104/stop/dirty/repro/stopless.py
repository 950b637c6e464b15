# RAG104: no stop(), so only the chain itself is reported
class Stopless:
    def start(self):
        self.sim.schedule(10.0, self._tick)
    def _tick(self):
        self.sim.schedule(10.0, self._tick)
