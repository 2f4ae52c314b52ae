"""A fixed calibration kernel that measures the host's current speed.

The benchmark's host changes speed by up to about 1.8x every few seconds
(README.md, Steadiness).  Timing this kernel right before and right after
each trial gives the speed the trial ran at, so the trial's wall time can be
restated at a fixed reference speed.  The kernel mixes the kinds of work the
program does: scalar float arithmetic and math calls in Python loops, dict
and list traffic, and small numpy array operations.  It uses no program
code, so a change to the program cannot change the kernel.
"""

from __future__ import annotations

import math
import time

# kernel time at the reference speed: the median of kernel_ms() over 1000
# calls on a 2-vCPU Intel Xeon VM while it ran mostly in its fast mode
REFERENCE_KERNEL_MS = 2.4


def kernel() -> float:
    # numpy is imported here, not at module level, so that importing this
    # module leaves numpy's import inside the benchmark's set-up time
    import numpy as np

    grid = np.linspace(0.05, 1.0, 48)
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(8000):
        x = (i % 97) * 0.013 + acc * 1e-9
        acc += math.exp(-x) * math.log1p(x) / (1.0 + x * x)
        table[i & 127] = acc
    values = list(table.values())
    for _ in range(60):
        acc += float(np.sum(np.exp(-grid * (acc % 3.0))))
        acc -= max(values) * 1e-6
    return acc


def kernel_ms() -> float:
    """Wall milliseconds of one kernel call."""
    start = time.perf_counter()
    kernel()
    return (time.perf_counter() - start) * 1e3
