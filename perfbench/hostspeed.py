"""Host-speed reference for the wall-clock metrics.

The benchmark's hosts drift.  While it was sized, a fixed pure-Python
loop's median time moved by 20-50% between stretches of a few seconds
(the CPU is shared with other tenants; thread CPU time drifts with wall
time, so it is not descheduling), and every wall metric moved with it:
the same workload's p50 spread 15-25% between 20-second runs.

:class:`HostSpeed` times a fixed reference kernel -- dict, loop and
small-NumPy work that touches no ``repro`` code -- between units of the
workload.  Each wall sample carries a *stamp* (how many probes had run when
it was taken); :meth:`HostSpeed.scale` divides it by the host factor around
that stamp: the median of the nearest :data:`WINDOW` probes over
:data:`NOMINAL_NS`.  Medians and throughputs are thus reported on the
reference host, where the kernel takes ``NOMINAL_NS``; the raw values are
printed beside them.  The kernel never changes with the library, so a change to the
library moves the scaled metrics exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

import numpy as np

#: the reference kernel's median time on the reference host, by
#: definition the host factor 1.0 (about its median on a 2-vCPU x86-64 VM
#: running CPython 3.11)
NOMINAL_NS = 1_000_000
#: probes around a sample that give its host factor (a few seconds of
#: work: local enough to follow the drift, wide enough to average the
#: probe's own scatter)
WINDOW = 31

_BASE = np.arange(64, dtype=np.float64)


def _kernel() -> int:
    d: dict[int, int] = {}
    acc = 0
    for i in range(2500):
        k = i % 211
        d[k] = d.get(k, 0) + i
        if i % 50 == 0:
            acc += int(np.array_equal(_BASE + i, _BASE + i))
    return acc + len(d)


class HostSpeed:
    """Probe samples of one run (see module doc)."""

    def __init__(self):
        self.samples: list[int] = []
        self._factors: list[float] | None = None

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = perf_counter_ns()
            _kernel()
            self.samples.append(perf_counter_ns() - t0)
        self._factors = None

    def stamp(self) -> int:
        """The stamp of a sample taken now."""
        return len(self.samples)

    def factor(self, stamp: int | None = None) -> float:
        """Host factor around ``stamp`` (of the whole run when None):
        above 1 means a slower host than the reference."""
        if stamp is None:
            return statistics.median(self.samples) / NOMINAL_NS
        if self._factors is None:
            n, h = len(self.samples), WINDOW // 2
            starts = [max(0, min(s - h - 1, n - WINDOW))
                      for s in range(n + 1)]
            self._factors = [
                statistics.median(self.samples[a:a + WINDOW]) / NOMINAL_NS
                for a in starts]
        return self._factors[min(stamp, len(self._factors) - 1)]

    def scale(self, dt: float, stamp: int) -> float:
        """A wall time on the reference host."""
        return dt / self.factor(stamp)
