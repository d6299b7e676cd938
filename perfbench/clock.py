"""Reference-speed clock for a machine whose speed drifts.

On a shared machine the same pure-Python work can take much longer from one
second to the next: on a 2-core sandbox, a fixed 60 ms loop ranged from 39 to
85 ms within one minute, and a 9 s pass of the torus_engines workload ranged
from 7.7 to 11.1 s over five runs.  Wall seconds there measure the neighbours
as much as the program.

``RefClock`` samples the machine's momentary speed.  While it runs, a SIGALRM
handler in the main thread runs a fixed pure-Python kernel every
``INTERVAL_S`` and records how long the kernel took; no thread or process is
started.  ``ref_seconds(t0, t1)`` converts a ``perf_counter`` interval into
reference seconds: each stretch between two samples is scaled by
``KERNEL_REF_S`` over the mean duration of those two samples, and the
sampler's own time is left out.  On a machine where the kernel takes
``KERNEL_REF_S``, reference seconds equal wall seconds.  The kernel does not
touch cckit, so a change to cckit cannot change the scale.

The correction is partial: when the machine ran 1.7 times slower than usual,
a pass dominated by the oracle's search still read about 20% slower in
reference seconds.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.1
KERNEL_REF_S = 0.0025


def kernel() -> int:
    """Dict, tuple and sort work, like cckit's own Python loops."""
    acc: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = ((i * 7919) % 1009, i & 7)
        acc[key] = acc.get(key, 0) + i
    return len(sorted(acc))


class RefClock:
    """Context manager that samples machine speed; see the module docstring."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of [t0, t1], less the sampler's own time in it.

        Call after the clock has stopped.
        """
        starts, ends = self.starts, self.ends
        if not starts:
            return t1 - t0
        total = 0.0
        # gaps between samples: gap j runs from ends[j-1] to starts[j]; gap 0
        # and the gap after the last sample take their one neighbour's speed
        last = len(starts)
        j = bisect.bisect_right(ends, t0)
        while j <= last:
            lo = ends[j - 1] if j > 0 else float("-inf")
            hi = starts[j] if j < last else float("inf")
            if lo >= t1:
                break
            overlap = min(hi, t1) - max(lo, t0)
            if overlap > 0:
                k_before = ends[j - 1] - starts[j - 1] if j > 0 else None
                k_after = ends[j] - starts[j] if j < last else None
                if k_before is None:
                    k = k_after
                elif k_after is None:
                    k = k_before
                else:
                    k = (k_before + k_after) / 2
                total += overlap * KERNEL_REF_S / k
            j += 1
        return total
