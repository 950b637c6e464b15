import numpy as np
np.random.seed(3)
x = np.random.rand(4)
