"""The host's current speed, from a fixed pure-Python reference kernel.

The hosts this benchmark runs on are shared, and their speed moves by up
to a factor of two within seconds and drifts by a fifth over minutes, so
raw times of the same code are not comparable from one run to the next.
Each timed interval is therefore also reported in nominal seconds: its
raw time times ``NOMINAL_KERNEL_S`` over the kernel's time at that
moment, that is, the time it would have taken on a host where the kernel
takes ``NOMINAL_KERNEL_S``.  The kernel does the dict, tuple and
small-integer work that dominates vknots, and it runs between ops, never
inside one.
"""

from __future__ import annotations

import bisect
import time

# A round number; the kernel took 1 to 2 ms on the 2-core x86_64 host the
# benchmark was tuned on.  Changing it rescales every nominal time.
NOMINAL_KERNEL_S = 1.0e-3
PROBE_INTERVAL_S = 0.05

_clock = time.perf_counter


def kernel_seconds() -> float:
    """One run of the reference kernel, timed."""
    start = _clock()
    acc: dict[int, int] = {}
    for i in range(2500):
        k = (i * 7919) % 1013
        acc[k] = acc.get(k, 0) + i
        tuple(range(i % 7))
    return _clock() - start


class HostSpeed:
    """Kernel probes taken between ops, at most every ``PROBE_INTERVAL_S``."""

    def __init__(self):
        self.times: list[float] = []  # midpoint of each probe
        self.kernel: list[float] = []
        self._last = float("-inf")

    def probe(self, force: bool = False) -> None:
        start = _clock()
        if not force and start - self._last < PROBE_INTERVAL_S:
            return
        seconds = kernel_seconds()
        self.times.append(start + seconds / 2)
        self.kernel.append(seconds)
        self._last = _clock()

    def factors(self, at: list[float]) -> list[float]:
        """Nominal seconds per raw second at each of the increasing times
        ``at``, interpolated between the probes around it.  The host's
        speed changes within a second, so the nearest probes track it
        best: smoothing over neighbouring probes widened the run-to-run
        spread of latency_p90_ms instead of narrowing it."""
        k = self.kernel
        out = []
        for t in at:
            j = bisect.bisect(self.times, t)
            if j == 0:
                kernel = k[0]
            elif j == len(k):
                kernel = k[-1]
            else:
                t0, t1 = self.times[j - 1], self.times[j]
                w = (t - t0) / (t1 - t0)
                kernel = k[j - 1] * (1 - w) + k[j] * w
            out.append(NOMINAL_KERNEL_S / kernel)
        return out
