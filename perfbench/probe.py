"""Fixed reference work, run as its own process between benchmark commands.

It does what every CLI run does, on a fixed input: start an interpreter,
import numpy, run an interpreter loop, and do complex arithmetic on freshly
allocated arrays larger than the caches (16 MB, the size of one working
array of ``psi_full``).  It imports nothing from the program under test, so
its wall time measures only the host's speed at that moment.
"""

import numpy as np

total = 0
for k in range(100_000):
    total += k
phases = np.linspace(0.0, 1.0, 1 << 20)
np.cumsum(np.exp(1j * phases))
