"""Reference kernel: fixed work that does not use quadnet, timed between a
run's cells to measure how fast the host runs at the time.

The host is shared.  Over minutes its speed moves by 10-25% as other
tenants come and go, and the move lasts longer than one run, so taking each
cell at its best pass cannot remove it.  The kernel slows with the cells, so
a run scales its cell times by REFERENCE_S / (the kernel's lower-quartile
time in that run): the times are then seconds at the reference speed, and
runs of the same code on a busy and a quiet host agree more closely.  The
raw wall times are kept in the run's notes.

The kernel mixes the kinds of work the workloads do: a pure-Python loop,
sorting and summing a 200k-element array, scipy.integrate.quad with a Python
integrand, and a symmetric eigh plus a Gram matrix product at numpy's default
BLAS threads.  Among six single kernels, their sums and three statistics,
tried on six runs of each workload, this sum with its lower quartile (a
fast-state figure, like the cells' best pass) cut the runs' spread the most
on both workloads, from about 0.2 of the median to about 0.05.
"""

import math
import statistics
import time

import numpy as np
from scipy import integrate

# the kernel's lower-quartile time on a 2-vCPU Intel Xeon VM
# (Python 3.11, numpy 2.4, scipy 1.17, OpenBLAS 0.3.31)
REFERENCE_S = 0.031


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((300, 300))
        self._sym = a + a.T
        self._tall = rng.standard_normal((2000, 100))
        self._long = rng.standard_normal(200_000)
        self._kernel()  # first-call set-up is not a sample
        self.samples = []

    def _kernel(self):
        s = 0
        for i in range(100_000):
            s += i * i
        for _ in range(2):
            np.sort(self._long)
            np.cumsum(self._long)
        for k in range(20):
            integrate.quad(lambda t: math.sqrt(abs(4 * t - (t - 1) ** 2)) / (1 + t + k), 0.0, 3.0)
        np.linalg.eigh(self._sym)
        self._tall.T @ self._tall

    def sample(self):
        """Run the kernel once and record its wall time."""
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def quartile_s(self):
        return statistics.quantiles(self.samples, n=4)[0]

    def scale(self):
        """Factor from this run's wall seconds to seconds at the reference speed."""
        return REFERENCE_S / self.quartile_s()
