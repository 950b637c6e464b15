import numpy as np
rng = np.random.default_rng(7)
x = rng.normal()
