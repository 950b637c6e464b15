# RAG104: start() and _tick() both drop the chain's handle
class Leaky:
    def start(self):
        self.sim.schedule(10.0, self._tick)
    def stop(self):
        self._running = False
    def _tick(self):
        self.sim.schedule(10.0, self._tick)
