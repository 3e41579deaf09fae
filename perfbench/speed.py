"""Host-speed gauge: scales measured times to a reference host speed.

The shared 2-vCPU host the benchmark was tuned on runs the same Python code
up to 1.7x slower for spells that last from seconds to many minutes; the
process's CPU time slows with its wall time, so the host runs slower rather
than descheduling it.  A whole 40 s run can fall inside one slow spell, so no
statistic over one run's own item times removes it.

The gauge times a fixed kernel of standard-library ``Fraction`` arithmetic
(the kind of work lincert does, and code no lincert change touches) every
``EVERY_S`` seconds between items.  A time measured between ``t0`` and ``t1``
is scaled by ``REFERENCE_MS`` over the median kernel time within
``WINDOW_S`` of that interval: it reads as the time the same work takes on a
host where the kernel takes ``REFERENCE_MS``.  A change that makes lincert do
more work moves the scaled time just as it moves the raw one.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# A round figure below the kernel's time on the tuning host (2.0 GHz vCPU),
# where the median over a run was 2.4-3.1 ms.
REFERENCE_MS = 2.0
EVERY_S = 0.25
WINDOW_S = 1.0


def kernel() -> Fraction:
    """Fixed Fraction work: products, sums, comparisons and a dict of rows."""
    rows = {}
    for i in range(1, 241):
        a = Fraction(i % 13 + 1, i % 11 + 2)
        b = Fraction(i % 5 - 2, i % 7 + 1)
        rows[i % 17] = rows.get(i % 17, Fraction(0)) * a + b
        if rows[i % 17] > 10:
            rows[i % 17] = rows[i % 17] / (i + 1)
    return sum(rows.values(), Fraction(0))


class SpeedGauge:
    def __init__(self):
        self.times: list[float] = []
        self.kernel_ms: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.kernel_ms.append((t1 - t0) * 1e3)

    def tick(self) -> None:
        """Sample when ``EVERY_S`` has passed since the last sample."""
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_MS over the median kernel time near [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        near = self.kernel_ms[lo:hi]
        if not near:  # no sample in the window: take the closest one
            i = min(range(len(self.times)), key=lambda k: min(abs(self.times[k] - t0), abs(self.times[k] - t1)))
            near = [self.kernel_ms[i]]
        return REFERENCE_MS / statistics.median(near)
