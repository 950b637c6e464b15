# clean twin of leaky.py and kept.py: stop() cancels the kept handle
class Fixed:
    def start(self):
        self._handle = self.sim.schedule(10.0, self._tick)
    def stop(self):
        self.sim.cancel(self._handle)
    def _tick(self):
        self._handle = self.sim.schedule(10.0, self._tick)
