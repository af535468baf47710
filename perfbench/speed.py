"""Calibration against the host's drifting speed.

On a shared 2-core host the same code runs up to ~40% slower in one
minute than in the next, and process CPU time drifts with wall time, so
the slowdown is in the host, not in scheduling.  A fixed kernel that uses
no albaxter code is timed between tasks; each task's time is scaled by
REFERENCE_S over the mean of the kernel times just before and just after
it.  Reported times are therefore seconds at the reference speed, which
is the kernel's time on the machine the benchmark was calibrated on
(2-core x86_64 VM, Python 3.11, numpy 2.4 with OpenBLAS 0.3.31).  The raw
times and every kernel sample go to the run's detail file.

The kernel mixes what the workloads spend time on: interpreted complex
arithmetic around small numpy calls, a small dense solve, and streaming
passes over arrays larger than the last-level cache.
"""

import time

import numpy as np

REFERENCE_S = 0.035
EVERY_S = 0.25  # task time between two kernel samples


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(20150807)
        self._A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self._b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        self._x = rng.standard_normal(2**20) + 0j   # 16 MiB
        self._y = np.empty_like(self._x)
        self.sample()   # first touch of the arrays; not a speed sample

    def sample(self):
        """Time the kernel once."""
        A, b, x, y = self._A, self._b, self._x, self._y
        t0 = time.perf_counter()
        acc = 0j
        for i in range(1250):
            acc = acc * 0.5 + (0.3 + 0.1j) * i
            v = np.roll(b, 1) * b
            acc += complex(v[0]) + abs(complex(np.prod(1.0 - v)))
            if i % 25 == 0:
                acc += np.linalg.solve(A, b)[0]
        for _ in range(2):
            np.multiply(x, 0.5, out=y)
            np.add(y, y, out=x)   # x unchanged, exactly
        return time.perf_counter() - t0

    @staticmethod
    def factor(before, after):
        """Scale from raw seconds to seconds at the reference speed."""
        return REFERENCE_S / (0.5 * (before + after))
