"""A fixed reference computation that gauges the machine's current speed.

On a shared machine the same pass runs up to 50% slower in one minute than
in the next, and no statistic over one run's passes removes that drift.
Every pass process times ``kernel()`` just before and just after its pass;
``run.py`` scales the times it reports by ``CAL_REF_S`` (``spec.py``) over
the run's mean kernel time, so they read as seconds at the machine's
reference speed.  On a 15-minute sequence of 134 condition-sweep passes,
cut into runs of six, a run's median pass time and its mean kernel time
correlated at 0.88, and the median pass time spread by 9% across runs
before this scaling and by 5% after it.

The kernel uses only Python and numpy, never vexleb, so no change to the
program moves it.  Its mix follows the workloads: an interpreter loop,
many numpy calls on small arrays (like the Luxemburg bisection), and sorts
and reductions on a dense 1024 x 1024 distance table (like the geometry
and condition sweeps).
"""
import time

import numpy as np


def kernel() -> float:
    """Seconds taken by one run of the reference computation."""
    rng = np.random.default_rng(0)
    a, b = rng.random(256), rng.random(256)
    x = np.sort(rng.random(1024))
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(150_000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    for _ in range(3000):
        c = np.abs(a - b) ** 1.7
        c.sum()
        np.maximum(a, c).max()
    for _ in range(4):
        d = np.abs(x[:, None] - x[None, :])
        np.sort(d, axis=1)
        np.cumsum(d, axis=1)
        (d < 0.3).sum(axis=1)
    return time.perf_counter() - start

