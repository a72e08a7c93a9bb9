"""Host speed, read off a fixed calibration kernel.

On the 2-vCPU KVM guest this benchmark was written on, the same code ran
about 1.5x slower for stretches of several seconds, and the share of slow
time changed from one run to the next.  Medians of raw times moved with
it (run-to-run spread up to 0.4 of the median).  So the benchmark times
the calibration kernel often, and :meth:`HostSpeed.adjust` divides each
stretch of a measured interval by the host's slowness at that time: the
mean kernel time of the two samples around that stretch, over
``NOMINAL_S``.  The kernel is the benchmark's own code, shaped like one
ewclab conv layer (a window copy and a small matmul), so no change to the
program moves it.

Short items (a training step, an image, a re-run) are timed in the
process's CPU time instead, and :meth:`HostSpeed.adjust_cpu` divides it by
the kernel's mean CPU time over the samples around the item.  Other
processes sharing the guest delay an item's wall time by whole scheduler
slices, which the samples around it do not see; its CPU time leaves them
out, while a slower host still slows both the item and the kernel.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# the kernel's time in the host's fast phase, where the benchmark was written
NOMINAL_S = 0.0023
# samples on each side of an item that set its slowness.  On a busy host
# one sample's time hardly predicted the next one's, so the two nearest
# samples alone added their noise to every item and widened the p90
ITEM_WINDOW = 8


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(12, 24, 24))
        self._k = rng.normal(size=(12 * 9, 12))
        # preallocated, so sampling leaves the program's heap alone
        self._cols = np.empty((22, 22, 12, 3, 3))
        self._out = np.empty((22 * 22, 12))
        self.samples: list[float] = []
        self.cpu_samples: list[float] = []
        # perf_counter at the start and end of each sample() call
        self.starts: list[float] = []
        self.ends: list[float] = []

    def sample(self) -> None:
        """Time the kernel once."""
        start = time.perf_counter()
        wins = np.lib.stride_tricks.sliding_window_view(self._x, (3, 3), axis=(1, 2))
        cols = self._cols.reshape(22 * 22, 12 * 9)
        t0, c0 = time.perf_counter(), time.process_time()
        for _ in range(16):
            np.copyto(self._cols, wins.transpose(1, 2, 0, 3, 4))
            np.matmul(cols, self._k, out=self._out)
        self.samples.append(time.perf_counter() - t0)
        self.cpu_samples.append(time.process_time() - c0)
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def slowness(self, first: int, last: int) -> float:
        """Mean slowness over samples ``first`` to ``last``, inclusive."""
        window = self.samples[first : last + 1]
        return sum(window) / (len(window) * NOMINAL_S)

    def adjust(self, t0: float, t1: float) -> tuple[float, float]:
        """The time from ``t0`` to ``t1`` outside any sample, raw and
        adjusted: each stretch between two samples is divided by their
        mean slowness, a stretch before the first or after the last by
        that sample's."""
        last = len(self.samples) - 1
        gap = bisect.bisect_right(self.ends, t0) - 1  # the stretch after sample ``gap``
        raw = adjusted = 0.0
        while gap <= last:
            lo = max(t0, self.ends[gap]) if gap >= 0 else t0
            hi = min(t1, self.starts[gap + 1]) if gap < last else t1
            if hi > lo:
                raw += hi - lo
                adjusted += (hi - lo) / self.slowness(max(gap, 0), min(gap + 1, last))
            if gap == last or self.starts[gap + 1] >= t1:
                break
            gap += 1
        return raw, adjusted

    def adjust_cpu(self, t0: float, t1: float, cpu: float) -> float:
        """CPU seconds ``cpu`` spent from ``t0`` to ``t1``, an interval
        that holds no sample, divided by the mean CPU-time slowness of the
        ``ITEM_WINDOW`` samples before it and the ``ITEM_WINDOW`` after it."""
        before = bisect.bisect_right(self.ends, t0)  # samples that end by t0
        after = bisect.bisect_left(self.starts, t1)  # the first that starts at or after t1
        if after > before:
            raise ValueError("a host-speed sample falls inside the interval")
        window = self.cpu_samples[max(0, before - ITEM_WINDOW) : after + ITEM_WINDOW]
        return cpu * len(window) * NOMINAL_S / sum(window)
