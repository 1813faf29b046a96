"""Wall-clock intervals re-expressed at a reference machine speed.

The sandbox this benchmark runs in changes speed under it: for seconds at a
time the same pure-Python loop takes up to 1.7x longer (a neighbour on the
host), and raw wall-clock metrics then spread by 15-25 % between two runs of
identical work.  :class:`CalibratedClock` removes most of that: it times a
small fixed kernel of benchmark-owned Python (never program code, so a change
to the program cannot move it) every few tens of milliseconds, and reports an
interval as ``raw * (REFERENCE_KERNEL_S / kernel time around it) ** 0.8``.
A value therefore reads as "seconds on a machine where the kernel takes
``REFERENCE_KERNEL_S``" — the quiet state of the 2-vCPU reference box.

The exponent is measured, not assumed: over 280 passes of ``aids_pool_hit``
and ``pdbs_uniform_miss`` spanning both machine states, the program slowed by
the kernel's slow-down to the power 0.80-0.87 (the tight kernel loop feels a
busy host more than the program does).  With it, passes that ran in the slow
state report the same median as passes that ran in the quiet one, and the
interquartile spread of one pass's throughput falls from 12-13 % of the median
(raw wall clock) to 3-4 %.
"""

from __future__ import annotations

import gc
import statistics
import time
from bisect import bisect_left, bisect_right
from typing import Callable, List, Tuple, TypeVar

__all__ = ["CalibratedClock", "REFERENCE_KERNEL_S"]

T = TypeVar("T")

#: Kernel duration on the quiet reference box; normalised values are in its
#: seconds.  Changing it rescales every timing metric, so it is fixed.
REFERENCE_KERNEL_S = 0.0006

#: How often the measured loops re-sample the kernel (about 3 % overhead).
SAMPLE_INTERVAL_S = 0.02

#: How much of the kernel's slow-down the program shows (see module docstring).
_SENSITIVITY = 0.8

#: Kernel samples taken on either side of an interval to judge its speed.
_NEIGHBOURS = 3


def _kernel() -> float:
    """One calibration sample: integer arithmetic, dict stores, tuple allocs."""
    started = time.perf_counter()
    total = 0
    table = {}
    for i in range(6000):
        total += i * i % 7
        table[i & 63] = (i, total)
    return time.perf_counter() - started


class CalibratedClock:
    """Collects kernel samples and normalises intervals measured beside them."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._kernel_s: List[float] = []
        self._due = 0.0

    def sample(self, count: int = 1) -> float:
        """Take ``count`` kernel samples now; return the time afterwards."""
        for _ in range(count):
            self._kernel_s.append(_kernel())
            self._times.append(time.perf_counter())
        return self._times[-1]

    def tick(self, now: float) -> None:
        """Called between requests: sample once ``SAMPLE_INTERVAL_S`` has passed."""
        if now >= self._due:
            self._due = self.sample() + SAMPLE_INTERVAL_S

    def kernel_samples(self) -> List[float]:
        """Every kernel duration sampled so far (how fast the machine ran)."""
        return list(self._kernel_s)

    def factor(self, start: float, end: float) -> float:
        """Reference-speed seconds per raw second around ``[start, end]``.

        Judged by the median kernel time of the samples inside the interval
        and the few on either side of it.
        """
        low = max(0, bisect_left(self._times, start) - _NEIGHBOURS)
        high = bisect_right(self._times, end) + _NEIGHBOURS
        kernel_s = statistics.median(self._kernel_s[low:high])
        return (REFERENCE_KERNEL_S / kernel_s) ** _SENSITIVITY

    def normalised(self, start: float, end: float) -> float:
        """``end - start`` in reference-speed seconds."""
        return (end - start) * self.factor(start, end)

    def timed(self, call: Callable[..., T], *args) -> Tuple[T, float]:
        """Run ``call(*args)`` between kernel samples; return result and seconds.

        Garbage of whatever ran before is collected first, so that its
        collection is not billed to ``call`` at a point that varies by run.
        """
        gc.collect()
        started = self.sample(_NEIGHBOURS)
        result = call(*args)
        ended = time.perf_counter()
        self.sample(_NEIGHBOURS)
        return result, self.normalised(started, ended)
