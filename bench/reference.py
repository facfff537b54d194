"""The reference job: fixed work that no change to the program can alter, in
the program's mix (a Python loop over floats and dict lookups, then small
numpy array arithmetic). Its CPU time tracks the speed the host lends this
process, which on a shared virtual machine drifts by tens of percent within
minutes. The benchmark divides its timings by it (see NOTES.md).
"""

import math
import statistics
from time import process_time

import numpy as np

# A reference job's CPU time on a nominal host. ``setup_s`` is set-up time
# in reference jobs, times this: set-up CPU time on a host of that speed.
NOMINAL_S = 0.01


def reference_job():
    table = {i: float(i) for i in range(256)}
    acc = 0.0
    for i in range(20000):
        x = table[i & 255]
        acc += math.log1p(x) * 0.5 - x ** 0.3
    grid = np.linspace(0.0, 1.0, 200)
    for _ in range(20):
        acc += float(np.max(grid[:, None] * grid[None, :] - 0.5 * grid[:, None]))
    return acc


def reference_cpu_s(runs=1):
    """Median CPU seconds of ``runs`` runs of the reference job."""
    times = []
    for _ in range(runs):
        start = process_time()
        reference_job()
        times.append(process_time() - start)
    return statistics.median(times)
