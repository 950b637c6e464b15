"""Clean twin: the unused helper draws from the stream it is given."""


def run_task(name):
    return name


def _unused_jitter(rng):
    return rng.random()
