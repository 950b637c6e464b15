# RAG104: the handle is kept on self, but nothing cancels it
class Kept:
    def start(self):
        self._handle = self.sim.schedule(10.0, self._tick)
    def stop(self):
        pass
    def _tick(self):
        self._handle = self.sim.schedule(10.0, self._tick)
