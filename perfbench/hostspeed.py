"""Host-speed reference: a fixed kernel timed between ops.

The benchmark runs on a shared host whose speed drifts by about ±25% over
minutes, and CPU time drifts with it, so neither wall nor CPU time of an op
is steady from one run to the next. The kernel below is a fixed piece of
work of the same kind as the library's (Python loops over count tuples with
``math.lgamma``, small numpy calls, one vectorized log-sum-exp). It never
calls alphanml and imports no scipy, so a change to the library does not
change it. The run times it before every op (every set-up) and once after
the last, and reports each op's time scaled to the speed at which the
kernel takes ``REFERENCE_S``:

    scaled time = time * REFERENCE_S / (local kernel time)

where the local kernel time is the median of the kernel timings within
``WINDOW`` ops on either side. A slower host stretches the op and the
kernel alike, so the ratio is steady; a faster library shortens the op
alone, so the scaled time shows it in full. The raw figures and the
kernel's own median are printed beside the result.

Timing ``python -c pass`` instead, for the ops that are processes, tracked
worse: its time jumps between two levels about 50 ms apart, in phases that
do not follow the speed of the CLI processes.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.005  # kernel seconds at the reference speed (about the median on a 2-vCPU Xeon VM)
WINDOW = 2  # kernel timings on each side of an op that set its local speed

_PRIOR = (0.7, 1.3, 2.1)
_N = 56
_GRID = np.linspace(0.5, 400.5, 60_000)


def kernel() -> float:
    acc = 0.0
    for i in range(_N + 1):
        for j in range(_N + 1 - i):
            counts = (i, j, _N - i - j)
            acc += math.fsum(math.lgamma(c + a) for c, a in zip(counts, _PRIOR))
    small = np.arange(8.0)
    for _ in range(300):
        acc += float(np.all(small >= 0)) + float(small.sum())
    acc += float(np.logaddexp.reduce(-_GRID)) + float(np.log(_GRID).sum())
    return acc


class HostSpeed:
    """Kernel timings taken between ops, and the scale factors they give."""

    def __init__(self) -> None:
        kernel()  # warm caches; the first timing is not kept
        self.timings: list[float] = []

    def sample(self, repeats: int = 1) -> None:
        """Time the kernel ``repeats`` times and keep the median as one timing."""
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            kernel()
            times.append(perf_counter() - t0)
        self.timings.append(statistics.median(times))

    def median(self) -> float:
        return statistics.median(self.timings)

    def factors(self, count: int) -> list[float]:
        """Scale factors of ``count`` ops, op i lying between timings i and i + 1."""
        last = len(self.timings)
        return [
            REFERENCE_S / statistics.median(self.timings[max(0, i - WINDOW + 1):min(last, i + WINDOW + 1)])
            for i in range(count)
        ]
