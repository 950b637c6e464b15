# scheduling someone else's callback is not a self-owned chain
class Driver:
    def start(self, other):
        self.sim.schedule(10.0, other.fire)
    def stop(self):
        pass
