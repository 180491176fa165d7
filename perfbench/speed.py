"""Machine-speed calibration.

On a shared machine the speed of one core drifts by up to a factor of two
over tens of seconds, which would swamp any change to skeinlab.  The
benchmark therefore runs a fixed kernel, of the same kind of work as
skeinlab (dicts of tuples, sorting, complex arithmetic, small numpy
calls), every CAL_EVERY_S seconds between operations, and scales each
measured time by REF_KERNEL_MS / (the kernel's time near that moment).
Times so scaled read as milliseconds on a machine where the kernel takes
REF_KERNEL_MS; a change to skeinlab moves them fully, while the machine's
drift cancels.  The kernel is part of the benchmark and never changes with
the program under test.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# The kernel's time on a 2-core x86-64 shared virtual machine (Python 3.11, numpy 2.4) in
# its faster state; a constant, so scaled times compare across runs.
REF_KERNEL_MS = 1.4
CAL_EVERY_S = 0.05
NEIGHBOURS = 2  # kernel samples on each side of a moment

_X = np.array([1.0, 2.0, 3.0], dtype=complex)
_T = np.ones((3, 3, 3), dtype=complex)


def kernel() -> complex:
    table = {}
    for i in range(1500):
        table[(i, i % 7)] = (i * 0.5, complex(i, 1.0))
    acc = 0j
    for key, val in sorted(table.items(), key=lambda kv: -kv[1][0]):
        acc += val[1] * key[1]
    for _ in range(40):
        acc += np.einsum("i,j,ijk->k", _X, _X, _T)[0]
    return acc


class Calibrator:
    def __init__(self):
        self.times: list[float] = []  # kernel mid-points, perf_counter seconds
        self.ms: list[float] = []
        self._last = -1e300

    def measure(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.ms.append((t1 - t0) * 1e3)
        self._last = t1

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.measure()

    def factor(self, t: float) -> float:
        """REF_KERNEL_MS over the median kernel time around moment t."""
        i = bisect.bisect(self.times, t)
        near = self.ms[max(0, i - NEIGHBOURS): i + NEIGHBOURS]
        return REF_KERNEL_MS / statistics.median(near)

    def kernel_ms(self) -> float:
        return statistics.median(self.ms)
