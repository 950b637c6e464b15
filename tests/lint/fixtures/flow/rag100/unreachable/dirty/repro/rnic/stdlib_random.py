import random
value = random.randint(0, 7)
